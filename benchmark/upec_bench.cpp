// upec_bench — runs one workload of the UPEC benchmark and prints one JSON
// line of raw measurements and check outcomes; run.py builds this program,
// runs it and turns that line into the benchmark's metrics. README.md in
// this directory describes the workloads, the metrics and the checks.
//
//   upec_bench --workload hunt|methodology|campaign [--seed N] [--seconds S]
//              [--trace 0|1] [--secret-word W] [--out DIR]
//
// A run sets its workload up once (timed from the process's start as
// setup_s), then repeats whole rounds of the workload's fixed work until
// --seconds have passed (at least one round), timing each round's wall and
// CPU time. With --trace 1 one more round follows under an
// obs::TraceRecorder with UpecOptions::profileSolver on; its trace is
// written to DIR/trace.json and its verdicts and conflict counts must equal
// the untraced rounds'. The checks then test the first round's outputs.
// Only public entry points of the library are used.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/log.hpp"
#include "base/rng.hpp"
#include "engine/campaign.hpp"
#include "formal/bmc.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "soc/attack.hpp"
#include "soc/testbench.hpp"
#include "upec/upec.hpp"

namespace {

using namespace upec;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: setup_s counts from here.
const Clock::time_point kProcessStart = Clock::now();

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Moves each of this process's threads to the next CPU it may run on every
// kRotatePeriod. On a shared host the vCPUs can run at different speeds
// (pinned to each of four vCPUs in turn, one methodology round took 21.4,
// 27.3, 25.0 and 21.1 s), and the scheduler keeps a busy thread where it
// started, so a run's time would depend on where it landed. Rotating makes
// every run average over the same CPUs; on a quiet host it costs nothing
// measurable (12.6 s vs 12.5 s median round over six alternating pairs).
// Only this process's own threads move; the solver trajectory does not
// depend on where a thread runs.
class CpuRotator {
 public:
  static constexpr std::chrono::milliseconds kRotatePeriod{100};

  CpuRotator() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
    if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;
  ~CpuRotator() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    const pid_t self = gettid();
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t tick = 0; !cv_.wait_for(lock, kRotatePeriod, [this] { return stop_; });
         ++tick) {
      std::size_t slot = tick;
      std::error_code ec;
      for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
           it.increment(ec)) {
        const pid_t tid = static_cast<pid_t>(std::atoi(it->path().filename().c_str()));
        if (tid == self) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[slot++ % cpus_.size()], &one);
        sched_setaffinity(tid, sizeof one, &one);  // fails harmlessly for an exited thread
      }
    }
  }

  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// --- output -------------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& real(const char* k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(k, buf);
  }
  JsonObject& count(const char* k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  JsonObject& str(const char* k, const std::string& v) {
    std::string quoted = "\"";
    obs::appendJsonEscaped(quoted, v);
    return raw(k, quoted + '"');
  }
  JsonObject& flag(const char* k, bool v) { return raw(k, v ? "true" : "false"); }
  JsonObject& raw(const char* k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string json() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

// Named pass/fail outcomes of a workload's output checks.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failed_.push_back(what);
    ++total_;
  }
  const std::vector<std::string>& failed() const { return failed_; }
  unsigned total() const { return total_; }

 private:
  std::vector<std::string> failed_;
  unsigned total_ = 0;
};

// --- rounds -------------------------------------------------------------------

// Solver effort summed over a round's checks, as far as each entry point
// returns it (MethodologyReport carries conflicts and propagations only).
struct Effort {
  std::uint64_t conflicts = 0, propagations = 0, decisions = 0;
  std::uint64_t varsPeak = 0, clausesPeak = 0;
  std::uint64_t propagateNs = 0, analyzeNs = 0, reduceNs = 0, restartNs = 0;

  void add(const formal::BmcStats& s) {
    conflicts += s.conflicts;
    propagations += s.propagations;
    decisions += s.decisions;
    varsPeak = std::max(varsPeak, s.vars);
    clausesPeak = std::max(clausesPeak, s.clauses);
    propagateNs += s.propagateTimeNs;
    analyzeNs += s.analyzeTimeNs;
    reduceNs += s.reduceTimeNs;
    restartNs += s.restartTimeNs;
  }
  void add(const MethodologyReport& r) {
    conflicts += r.totalConflicts;
    propagations += r.totalPropagations;
    varsPeak = std::max(varsPeak, r.peakVars);
    clausesPeak = std::max(clausesPeak, r.peakClauses);
  }
};

struct Round {
  double wallS = 0, cpuS = 0;
  unsigned attempted = 0, failed = 0;
  // Verdicts, windows and conflict counts of every check in the round:
  // rounds of one run, traced or not, must produce the same string.
  std::string outcome;
  Effort effort;
  double inductionS = 0;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  // Builds everything the rounds share; timed as part of setup_s.
  virtual void setup() = 0;
  // Untimed preparation before round number `index` (0 follows setup).
  virtual void prepareRound(unsigned /*index*/, bool /*traced*/) {}
  // One round of the workload's fixed work; the caller times it.
  virtual Round round(bool traced) = 0;
  // Untimed bookkeeping after a round (artifact files).
  virtual void finishRound(bool /*traced*/) {}
  // Tests the outputs of the first round.
  virtual void check(std::uint64_t seed, Checks& checks) = 0;
  // Workload-specific raw figures for run.py.
  virtual void extra(JsonObject& /*out*/) {}

  double miterBuildS = 0;

 protected:
  std::unique_ptr<Miter> buildMiter(soc::SocVariant variant, std::uint32_t secretWord) {
    const Clock::time_point t = Clock::now();
    auto miter = std::make_unique<Miter>(soc::SocConfig::formalSmall(variant), secretWord);
    miterBuildS += secondsSince(t);
    return miter;
  }
};

std::string outcomeOf(const char* tag, Verdict v, unsigned window, std::uint64_t conflicts) {
  return std::string(tag) + ':' + verdictName(v) + ":k" + std::to_string(window) + ":c" +
         std::to_string(conflicts) + ';';
}

// --- directed attacks on the cycle-accurate SoC ------------------------------
// The configuration and layout of tests/attack_test.cpp: a 256-word data
// memory whose top quarter [192, 256) is PMP-protected, the secret at word
// 200, a user array at word 64 and 16 direct-mapped cache lines.

constexpr std::uint32_t kSimSecretWord = 200;
constexpr std::uint32_t kSimProtectedFromWord = 192;
constexpr std::uint32_t kSimAccessibleWord = 64;
constexpr unsigned kSimLines = 16;
constexpr unsigned kSimProtectedLine = kSimSecretWord % kSimLines;

soc::SocConfig attackConfig(soc::SocVariant v) {
  soc::SocConfig c;
  c.machine.xlen = 32;
  c.machine.nregs = 16;
  c.machine.imemWords = 64;
  c.machine.dmemWords = 256;
  c.machine.pmpEntries = 2;
  c.cacheLines = kSimLines;
  c.pendingWriteCycles = 8;
  c.refillCycles = 4;
  c.variant = v;
  return c;
}

soc::AttackLayout attackLayout() {
  soc::AttackLayout l;
  l.protectedByteAddr = kSimSecretWord * 4;
  l.accessibleByteAddr = kSimAccessibleWord * 4;
  return l;
}

void prepareVictim(soc::SocTestbench& tb, std::uint32_t secretValue) {
  tb.setDmemWord(kSimSecretWord, secretValue);
  tb.preloadCacheLine(kSimSecretWord, secretValue);  // the secret is in the cache
  tb.protectFromWord(kSimProtectedFromWord, 256);
  tb.setCsrMtvec(60 * 4);
  tb.loadProgram(soc::spinHandler(), 60);
  tb.setMode(false);  // the attacker runs as a user process
}

// Cycles until one Orc iteration's PMP trap commits (0: it never did).
unsigned orcIterationCycles(soc::SocVariant v, std::uint32_t secretValue, unsigned guess) {
  soc::SocTestbench tb(attackConfig(v));
  tb.loadProgram(soc::orcAttackProgram(attackLayout(), guess));
  prepareVictim(tb, secretValue);
  for (unsigned cycle = 0; cycle < 300; ++cycle) {
    tb.step();
    if (!tb.commits().empty() && tb.commits().back().trap) return cycle;
  }
  return 0;
}

// Whether the Meltdown-style transient sequence leaves the secret's cache
// line valid with the secret's tag.
bool meltdownFootprint(soc::SocVariant v, std::uint32_t secretValue) {
  soc::SocTestbench tb(attackConfig(v));
  tb.loadProgram(soc::meltdownTransientProgram(attackLayout()));
  prepareVictim(tb, secretValue);
  tb.run(100);
  const unsigned line = (secretValue >> 2) % kSimLines;
  return tb.cacheLineValid(line) && tb.cacheLineTag(line) == (secretValue >> 2) / kSimLines;
}

// A secret drawn from the seed: a word-aligned value whose cache line is
// neither the protected word's nor the user array's (both publicly known
// collisions the attacker excludes).
std::uint32_t drawSecret(Rng& rng) {
  for (;;) {
    const std::uint32_t word = static_cast<std::uint32_t>(rng.below(kSimProtectedFromWord));
    const unsigned line = word % kSimLines;
    if (line != kSimProtectedLine && line != kSimAccessibleWord % kSimLines) return word * 4;
  }
}

void attackChecks(std::uint64_t seed, Checks& checks) {
  Rng rng(seed);
  const std::uint32_t secret = drawSecret(rng);
  const unsigned secretLine = (secret >> 2) % kSimLines;
  const std::string tag = " (secret " + std::to_string(secret) + ")";

  unsigned slowest = 0, slowestCycles = 0;
  std::set<unsigned> others, secure;
  std::vector<unsigned> orcCycles(kSimLines, 0);
  for (unsigned guess = 0; guess < kSimLines; ++guess) {
    secure.insert(orcIterationCycles(soc::SocVariant::kSecure, secret, guess));
    if (guess == kSimProtectedLine) continue;
    orcCycles[guess] = orcIterationCycles(soc::SocVariant::kOrc, secret, guess);
    if (orcCycles[guess] > slowestCycles) {
      slowestCycles = orcCycles[guess];
      slowest = guess;
    }
  }
  for (unsigned guess = 0; guess < kSimLines; ++guess) {
    if (guess != kSimProtectedLine && guess != slowest) others.insert(orcCycles[guess]);
  }
  checks.expect(slowest == secretLine && others.size() == 1 && !others.count(0) &&
                    *others.begin() < slowestCycles,
                "Orc attack: only the secret's cache line iteration stalls" + tag);
  checks.expect(secure.size() == 1 && !secure.count(0),
                "Orc attack on the secure design: uniform timing" + tag);
  checks.expect(meltdownFootprint(soc::SocVariant::kMeltdownStyle, secret),
                "Meltdown-style attack leaves the secret's cache footprint" + tag);
  checks.expect(!meltdownFootprint(soc::SocVariant::kSecure, secret),
                "Meltdown-style attack on the secure design leaves no footprint" + tag);
}

// --- hunt: the vulnerability hunts of paper Table II -------------------------

constexpr unsigned kHuntMaxWindow = 10;
constexpr std::uint64_t kHuntBudget = 30'000;

class HuntWorkload : public Workload {
 public:
  explicit HuntWorkload(std::uint32_t secretWord) : secretWord_(secretWord) {}

  void setup() override {
    orc_ = buildMiter(soc::SocVariant::kOrc, secretWord_);
    meltdown_ = buildMiter(soc::SocVariant::kMeltdownStyle, secretWord_);
  }

  void prepareRound(unsigned index, bool) override {
    if (index > 0) setup();
  }

  Round round(bool traced) override {
    UpecOptions options;
    options.scenario = SecretScenario::kInCache;
    options.conflictBudget = kHuntBudget;
    options.profileSolver = traced;
    Round r;
    std::vector<MethodologyReport> reports;
    for (Miter* miter : {orc_.get(), meltdown_.get()}) {
      obs::Span span("bench", "bench.methodology_driver");
      MethodologyDriver flow(*miter, options);
      const MethodologyReport report = flow.hunt(kHuntMaxWindow);
      span.end();
      ++r.attempted;
      if (report.finalVerdict != Verdict::kLAlert) ++r.failed;
      r.effort.add(report);
      r.outcome += outcomeOf(soc::variantName(miter->config().variant), report.finalVerdict,
                             report.firstLAlertWindow.value_or(0), report.totalConflicts);
      r.outcome += 'p';
      r.outcome += std::to_string(report.firstPAlertWindow.value_or(0));
      r.outcome += ';';
      reports.push_back(report);
    }
    if (first_.empty()) first_ = std::move(reports);
    return r;
  }

  void check(std::uint64_t seed, Checks& checks) override {
    const MethodologyReport& orc = first_[0];
    const MethodologyReport& meltdown = first_[1];
    for (const MethodologyReport* r : {&orc, &meltdown}) {
      const char* name = r == &orc ? "Orc" : "Meltdown-style";
      if (!r->firstLAlertWindow) continue;  // a failed operation, counted as such
      checks.expect(r->firstPAlertWindow && *r->firstPAlertWindow < *r->firstLAlertWindow,
                    std::string(name) + " hunt: the P-alert window precedes the L-alert window");
      checks.expect(!r->lAlertRegisters.empty(),
                    std::string(name) + " hunt: the L-alert names architectural registers");
    }
    if (orc.firstLAlertWindow && meltdown.firstLAlertWindow) {
      checks.expect(*orc.firstLAlertWindow < *meltdown.firstLAlertWindow,
                    "Orc's L-alert window is shorter than the Meltdown-style one");
    }
    attackChecks(seed, checks);
  }

 private:
  std::uint32_t secretWord_;
  std::unique_ptr<Miter> orc_, meltdown_;
  std::vector<MethodologyReport> first_;
};

// --- methodology: the Fig. 5 loop ----------------------------------------------

constexpr unsigned kEnumMaxWindow = 5;
constexpr std::uint64_t kEnumBudget = 30'000;
constexpr unsigned kSecureMaxWindow = 3;

bool isCacheMetadata(const std::string& reg) {
  return reg.find("cache_valid") != std::string::npos ||
         reg.find("cache_tag") != std::string::npos;
}

class MethodologyWorkload : public Workload {
 public:
  explicit MethodologyWorkload(std::uint32_t secretWord) : secretWord_(secretWord) {}

  void setup() override {
    meltdown_ = buildMiter(soc::SocVariant::kMeltdownStyle, secretWord_);
    secure_ = buildMiter(soc::SocVariant::kSecure, secretWord_);
  }

  // A run leaves nodes in a miter's design (MethodologyDriver::run adds the
  // blocking conditions' logic), and the next run on that design takes a
  // different solver trajectory; every round therefore starts from fresh
  // miters, as a fresh process would.
  void prepareRound(unsigned index, bool) override {
    if (index > 0) setup();
  }

  Round round(bool traced) override {
    Round r;
    const bool keep = enumeration_.empty();

    // P-alert enumeration (Sec. VII-B): incremental checks, k rising, the
    // excluded set growing, until the cache-metadata P-alert shows up.
    UpecEngine engine(*meltdown_, enumOptions(traced));
    std::set<std::string> excluded;
    bool cacheMeta = false, lAlert = false;
    for (unsigned k = 1; k <= kEnumMaxWindow && !cacheMeta && !lAlert; ++k) {
      for (;;) {
        obs::Span span("bench", "bench.upec_check");
        UpecResult res = engine.check(k, excluded);
        span.end();
        r.effort.add(res.stats);
        r.outcome += outcomeOf("enum", res.verdict, k, res.stats.conflicts);
        if (keep) enumeration_.push_back({k, excluded, res});
        if (res.verdict == Verdict::kLAlert) lAlert = true;
        if (res.verdict != Verdict::kPAlert) break;
        for (const std::string& reg : res.differingMicro) {
          excluded.insert(reg);
          cacheMeta |= isCacheMetadata(reg);
        }
      }
    }
    ++r.attempted;
    if (!cacheMeta || lAlert) ++r.failed;

    // The secure design: Table I plus the induction of Sec. VI.
    obs::Span span("bench", "bench.methodology_driver");
    MethodologyDriver flow(*secure_, secureOptions(traced));
    const MethodologyReport report = flow.run(kSecureMaxWindow, miniRvBlockingConditions());
    span.end();
    ++r.attempted;
    if (report.finalVerdict != Verdict::kProven || !report.inductionHolds) ++r.failed;
    r.effort.add(report);
    r.inductionS = report.inductionRuntimeSec;
    r.outcome += outcomeOf("secure", report.finalVerdict, report.maxWindow, report.totalConflicts);
    if (keep) secureReport_ = report;
    return r;
  }

  void check(std::uint64_t, Checks& checks) override {
    // Every P-alert counterexample, replayed on the (unreduced) miter.
    UpecEngine property(*meltdown_, enumOptions(false));
    const rtl::Design& design = meltdown_->design();
    unsigned pAlerts = 0;
    for (const Check& c : enumeration_) {
      if (c.result.verdict != Verdict::kPAlert) continue;
      ++pAlerts;
      const std::string at = " (P-alert at k=" + std::to_string(c.k) + ", " +
                             std::to_string(c.excluded.size()) + " excluded)";
      if (!c.result.trace) {
        checks.expect(false, "P-alert carries a counterexample" + at);
        continue;
      }
      const formal::TraceEval eval(design, *c.result.trace);
      const formal::IntervalProperty p = property.buildProperty(c.k, c.excluded);
      bool assumptionsHold = true;
      for (const formal::TimedSig& a : p.assumptions) {
        assumptionsHold &= eval.value(a.sig, a.cycle).toBool();
      }
      for (const rtl::Sig& inv : p.invariantAssumptions) {
        for (unsigned t = 0; t <= c.k; ++t) assumptionsHold &= eval.value(inv, t).toBool();
      }
      checks.expect(assumptionsHold, "replay: every assumption holds at its cycle" + at);
      checks.expect(eval.value(meltdown_->microSocStateEqual(), 0).toBool() &&
                        eval.value(meltdown_->memoryEqualExceptSecret(), 0).toBool(),
                    "replay: the instances start equal (memory modulo the secret)" + at);
      bool differs = false;
      for (const RegPair& pair : meltdown_->logicPairs()) {
        if (c.excluded.count(pair.name)) continue;
        differs |= eval.regValue(pair.reg1, c.k) != eval.regValue(pair.reg2, c.k);
      }
      checks.expect(differs, "replay: a committed pair differs at k" + at);
    }
    checks.expect(pAlerts > 0, "the enumeration raised P-alerts");

    // Windows the incremental session proved at k <= 2, re-proved fresh.
    UpecOptions single = enumOptions(false);
    single.incrementalDeepening = false;
    single.conflictBudget = 0;  // a verdict check, not a budgeted search
    UpecEngine fresh(*meltdown_, single);
    for (const Check& c : enumeration_) {
      if (c.result.verdict != Verdict::kProven || c.k > 2) continue;
      checks.expect(fresh.check(c.k, c.excluded).verdict == Verdict::kProven,
                    "a fresh single-shot check proves window k=" + std::to_string(c.k) +
                        " with " + std::to_string(c.excluded.size()) + " excluded");
    }

    // Sec. VI: the induction needs the blocking conditions.
    if (secureReport_.inductionUsed) {
      InductiveProver prover(*secure_, secureOptions(false));
      const InductiveProver::Result bare = prover.prove(secureReport_.pAlertRegisters, {});
      checks.expect(!bare.holds && !bare.unknown,
                    "secure design: the induction fails without the blocking conditions");
    }
  }

 private:
  struct Check {
    unsigned k;
    std::set<std::string> excluded;
    UpecResult result;
  };

  static UpecOptions enumOptions(bool traced) {
    UpecOptions o;
    o.scenario = SecretScenario::kInCache;
    o.incrementalDeepening = true;
    o.conflictBudget = kEnumBudget;
    o.profileSolver = traced;
    return o;
  }
  static UpecOptions secureOptions(bool traced) {
    UpecOptions o;
    o.scenario = SecretScenario::kAny;
    o.profileSolver = traced;
    return o;
  }

  std::uint32_t secretWord_;
  std::unique_ptr<Miter> meltdown_, secure_;
  std::vector<Check> enumeration_;
  MethodologyReport secureReport_;
};

// --- campaign: the Sec. V-A ablation matrix on the campaign engine ------------

constexpr unsigned kCampaignThreads = 2;
constexpr unsigned kCampaignMaxWindow = 3;

// The NDJSON writer with the benchmark's span around each event, so the
// traced round can tell the event stream's share of the campaign. It stays
// an NdjsonWriter, which runCampaign reads lines_written from.
class SpannedNdjsonWriter : public obs::NdjsonWriter {
 public:
  using obs::NdjsonWriter::NdjsonWriter;
  void onEvent(const obs::StreamEvent& event) override {
    obs::Span span("bench", "bench.stream_event");
    obs::NdjsonWriter::onEvent(event);
  }
};

class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(std::uint32_t secretWord, std::string outDir)
      : secretWord_(secretWord), outDir_(std::move(outDir)) {}

  void setup() override {
    // The jobs build their own miters inside runCampaign; the designs'
    // miters are built here once so soc.miter_build_s reads the same layer
    // as on the other workloads.
    for (soc::SocVariant v : {soc::SocVariant::kSecure, soc::SocVariant::kOrc}) {
      buildMiter(v, secretWord_);
      engine::SweepMatrix matrix;
      matrix.config = soc::SocConfig::formalSmall(v);
      matrix.secretWord = secretWord_;
      matrix.scenarios = {SecretScenario::kInCache, SecretScenario::kNotInCache};
      UpecOptions full, noC1, noC3, unprotected;
      noC1.constraint1NoOngoing = false;
      noC3.constraint3SecureSw = false;
      unprotected.assumeSecretProtected = false;
      matrix.variants = {{"full", full},
                         {"no_constraint1", noC1},
                         {"no_constraint3", noC3},
                         {"no_protection", unprotected}};
      matrix.mode = engine::DeepeningMode::kIncremental;
      matrix.kMin = 1;
      matrix.kMax = kCampaignMaxWindow;
      matrix.reduce = true;
      for (engine::JobSpec spec : engine::enumerateJobs(matrix)) {
        spec.id = static_cast<std::uint32_t>(jobs_.size());
        spec.label = std::string(soc::variantName(v)) + "/" + spec.label;
        jobs_.push_back(std::move(spec));
      }
    }
    openFiles(false);
  }

  void prepareRound(unsigned index, bool traced) override {
    if (index > 0) openFiles(traced);
  }

  Round round(bool traced) override {
    std::vector<engine::JobSpec> jobs = jobs_;
    for (engine::JobSpec& spec : jobs) spec.options.profileSolver = traced;
    obs::Span span("bench", "bench.run_campaign");
    last_ = engine::runCampaign(jobs, campaignOptions(false));
    span.end();

    Round r;
    for (const engine::JobResult& job : last_.jobs) {
      for (const engine::WindowResult& w : job.windows) {
        ++r.attempted;
        if (w.verdict == Verdict::kUnknown || w.verdict == Verdict::kError) ++r.failed;
        r.outcome += outcomeOf(job.label.c_str(), w.verdict, w.window, w.stats.conflicts);
        r.outcome += 'a';
        r.outcome += std::to_string(w.attempts.size());
        r.outcome += ';';
        r.effort.add(w.stats);
      }
    }
    if (!first_) first_ = last_;
    return r;
  }

  void finishRound(bool traced) override {
    stream_.reset();  // closes the stream file
    std::ofstream(path(traced ? "campaign_report_traced.json" : "campaign_report.json"))
        << last_.toJson() << '\n';
    journalBytes_ = std::filesystem::file_size(path("campaign_journal.ndjson"));
  }

  void check(std::uint64_t, Checks& checks) override {
    const engine::CampaignReport& report = *first_;
    auto job = [&](const std::string& label) -> const engine::JobResult* {
      for (const engine::JobResult& j : report.jobs) {
        if (j.label == label) return &j;
      }
      return nullptr;
    };
    checks.expect(report.jobs.size() == jobs_.size(), "every job reports");
    for (SecretScenario scenario : {SecretScenario::kInCache, SecretScenario::kNotInCache}) {
      const std::string name = scenarioName(scenario);
      const engine::JobResult* full = job("secure/" + name + "/full");
      checks.expect(full && full->verdict != Verdict::kLAlert && full->windows.size() == 3,
                    "secure design, all constraints, " + name + ": no L-alert");
    }
    const engine::JobResult* noC1 =
        job("secure/" + std::string(scenarioName(SecretScenario::kNotInCache)) +
            "/no_constraint1");
    checks.expect(noC1 && (noC1->verdict == Verdict::kPAlert ||
                           noC1->verdict == Verdict::kLAlert),
                  "secure design without Constraint 1, secret not cached: an alert by k=3");

    // Resume from the finished journal: everything adopted, nothing solved.
    engine::CampaignOptions resume = campaignOptions(true);
    const engine::CampaignReport resumed = engine::runCampaign(jobs_, resume);
    bool same = resumed.jobs.size() == last_.jobs.size();
    std::size_t windows = 0;
    for (std::size_t j = 0; same && j < last_.jobs.size(); ++j) {
      const auto& a = last_.jobs[j].windows;
      const auto& b = resumed.jobs[j].windows;
      windows += a.size();
      same &= std::equal(a.begin(), a.end(), b.begin(), b.end(),
                         [](const engine::WindowResult& x, const engine::WindowResult& y) {
                           return x.window == y.window && x.verdict == y.verdict &&
                                  x.stats.conflicts == y.stats.conflicts;
                         });
    }
    checks.expect(resumed.resumed && resumed.replayedWindows == windows &&
                      resumed.replayedJobs == jobs_.size(),
                  "resume adopts every window of the finished journal");
    checks.expect(same, "resume reproduces every window's verdict and conflict count");
  }

  void extra(JsonObject& out) override { out.count("journal_bytes", journalBytes_); }

 private:
  std::string path(const char* name) const { return outDir_ + "/" + name; }

  void openFiles(bool traced) {
    std::filesystem::remove(path("campaign_journal.ndjson"));
    stream_ = std::make_unique<SpannedNdjsonWriter>(
        path(traced ? "campaign_events_traced.ndjson" : "campaign_events.ndjson"));
    if (!stream_->ok()) throw std::runtime_error("cannot open the event stream file");
  }

  engine::CampaignOptions campaignOptions(bool resume) const {
    engine::CampaignOptions o;
    o.threads = kCampaignThreads;
    if (!resume) o.observer = stream_.get();
    o.reschedule.enabled = true;
    o.reschedule.initialBudget = 1'000;
    o.reschedule.budgetGrowth = 4.0;
    o.reschedule.maxReschedules = 8;
    o.checkpoint.path = path("campaign_journal.ndjson");
    o.checkpoint.resume = resume;
    return o;
  }

  std::uint32_t secretWord_;
  std::string outDir_;
  std::vector<engine::JobSpec> jobs_;
  std::unique_ptr<SpannedNdjsonWriter> stream_;
  engine::CampaignReport last_;
  std::optional<engine::CampaignReport> first_;
  std::uintmax_t journalBytes_ = 0;
};

// --- main ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1;
  bool trace = false;
  std::uint32_t secretWord = 12;
  std::string outDir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "upec_bench: %s\nusage: upec_bench --workload hunt|methodology|campaign "
               "[--seed N] [--seconds S] [--trace 0|1] [--secret-word W] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--secret-word") {
      a.secretWord = static_cast<std::uint32_t>(std::stoul(value));
    } else if (flag == "--out") {
      a.outDir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

std::unique_ptr<Workload> makeWorkload(const Args& a) {
  if (a.workload == "hunt") return std::make_unique<HuntWorkload>(a.secretWord);
  if (a.workload == "methodology") return std::make_unique<MethodologyWorkload>(a.secretWord);
  if (a.workload == "campaign") return std::make_unique<CampaignWorkload>(a.secretWord, a.outDir);
  usage(("unknown workload " + a.workload).c_str());
}

std::string roundJson(const Round& r) {
  const Effort& e = r.effort;
  return JsonObject()
      .real("wall_s", r.wallS)
      .real("cpu_s", r.cpuS)
      .count("attempted", r.attempted)
      .count("failed", r.failed)
      .count("conflicts", e.conflicts)
      .count("propagations", e.propagations)
      .count("decisions", e.decisions)
      .count("vars_peak", e.varsPeak)
      .count("clauses_peak", e.clausesPeak)
      .real("propagate_s", e.propagateNs * 1e-9)
      .real("analyze_s", e.analyzeNs * 1e-9)
      .real("reduce_db_s", e.reduceNs * 1e-9)
      .real("restart_s", e.restartNs * 1e-9)
      .real("induction_s", r.inductionS)
      .json();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  setLogLevel(LogLevel::kSilent);
  std::filesystem::create_directories(args.outDir);

  std::unique_ptr<Workload> workload = makeWorkload(args);
  workload->setup();
  const double setupS = secondsSince(kProcessStart);
  const double miterBuildS = workload->miterBuildS;
  CpuRotator rotator;

  auto timedRound = [&](unsigned index, bool traced) {
    workload->prepareRound(index, traced);
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    obs::Span span("bench", "bench.round");
    Round r = workload->round(traced);
    span.end();
    r.wallS = secondsSince(t0);
    r.cpuS = cpuSeconds() - cpu0;
    workload->finishRound(traced);
    return r;
  };

  std::vector<Round> rounds;
  const Clock::time_point measureStart = Clock::now();
  do {
    rounds.push_back(timedRound(static_cast<unsigned>(rounds.size()), false));
  } while (secondsSince(measureStart) < args.seconds);
  const double peakMb = peakRssMb();

  Checks checks;
  for (const Round& r : rounds) {
    checks.expect(r.outcome == rounds.front().outcome,
                  "every round reaches the same verdicts and conflict counts");
  }
  std::optional<Round> traced;
  std::uint64_t droppedEvents = 0;
  if (args.trace) {
    obs::TraceRecorder recorder(1 << 16);
    recorder.start();
    traced = timedRound(static_cast<unsigned>(rounds.size()), true);
    recorder.stop();
    droppedEvents = recorder.droppedEvents();
    if (!recorder.writeFile(args.outDir + "/trace.json")) {
      throw std::runtime_error("cannot write the trace file");
    }
    checks.expect(traced->outcome == rounds.front().outcome,
                  "the traced round reaches the untraced verdicts and conflict counts");
  }
  workload->check(args.seed, checks);

  unsigned attempted = 0, failed = 0;
  std::string roundList;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    if (!roundList.empty()) roundList += ',';
    roundList += roundJson(r);
  }
  if (traced) {
    attempted += traced->attempted;
    failed += traced->failed;
  }
  std::string failedChecks;
  for (const std::string& what : checks.failed()) {
    std::string quoted = "\"";
    obs::appendJsonEscaped(quoted, what);
    if (!failedChecks.empty()) failedChecks += ',';
    failedChecks += quoted + '"';
  }
  JsonObject out;
  out.str("workload", args.workload)
      .count("seed", args.seed)
      .count("secret_word", args.secretWord)
      .real("setup_s", setupS)
      .real("miter_build_s", miterBuildS)
      .real("peak_rss_mb", peakMb)
      .count("attempted", attempted)
      .count("failed", failed)
      .count("checks", checks.total())
      .raw("failed_checks", '[' + failedChecks + ']')
      .raw("rounds", '[' + roundList + ']');
  if (traced) out.raw("traced", roundJson(*traced)).count("dropped_events", droppedEvents);
  workload->extra(out);
  std::printf("%s\n", out.json().c_str());
  return 0;
}
