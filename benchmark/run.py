#!/usr/bin/env python3
"""The UPEC benchmark: builds the library and upec_bench, runs one workload,
checks the program's outputs and prints one JSON result line (stdlib only).

    python3 benchmark/run.py --workload hunt|methodology|campaign \\
        [--seed N] [--seconds S] [--trace 0|1] [--secret-word W]

With --trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics (README.md in this directory maps one onto the other). The
build tree and every file a run writes live under .bench_build/ at the root
of the checkout. Build output goes to stderr; the last line of stdout is the
result:

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

Exit status 0 = a result was printed (its "correct" field says whether the
checks passed); anything else = no result (build or run failure).
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Metric names and units come from BENCHMARK.json, the one list of them.
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("hunt", "methodology", "campaign")
DEFAULT_SECRET_WORD = 12
# upec_bench must finish well inside a run's 180 s limit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def configured():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return os.path.realpath(line.split("=", 1)[1].strip()) == os.path.realpath(HERE)
    return False


def build():
    """Configures (once) and builds upec_bench; returns its path or None."""
    if not configured():
        shutil.rmtree(BUILD, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(BUILD, "upec_bench")
    return exe if os.path.exists(exe) else None


# --- trace analysis -----------------------------------------------------------

def load_spans(path):
    """Complete events of a Chrome trace, each with its self time (µs)."""
    with open(path) as f:
        data = json.load(f)
    spans = [e for e in data["traceEvents"] if e.get("ph") == "X"]
    by_tid = collections.defaultdict(list)
    for s in spans:
        s["self"] = s["dur"]
        s["top"] = True
        by_tid[s["tid"]].append(s)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in tid_spans:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= s["ts"]:
                stack.pop()
            if stack:
                stack[-1]["self"] -= s["dur"]
                s["top"] = False
            stack.append(s)
    return spans, by_tid, data.get("otherData", {}).get("droppedEvents", 0)


def layer_times(spans, by_tid):
    """Seconds per layer from span self times, plus the uncovered remainder."""
    def total(names, key="self"):
        return sum(max(0, s[key]) for s in spans if s["name"] in names) * 1e-6

    solves = [s for s in spans if s["name"] == "bmc.solve"]
    exhausted = [s for s in solves if s.get("args", {}).get("status") == "undef"]
    solve_conflicts = sum(s.get("args", {}).get("conflicts", 0) for s in solves)
    out = {
        "rtl.reduce_s": total({"rtl.reduce"}),
        "formal.encode_s": total({"bmc.encode"}),
        "sat.solve_s": total({"bmc.solve"}, "dur"),
        "sat.exhausted_checks": len(exhausted),
        "sat.exhausted_conflict_share": (
            sum(s["args"].get("conflicts", 0) for s in exhausted) / solve_conflicts
            if solve_conflicts else 0.0),
        "upec.checks": sum(1 for s in spans if s["name"] == "upec.check"),
        "upec.self_s": total({"upec.check", "bench.upec_check", "bench.methodology_driver"}),
        "obs.stream_s": total({"bench.stream_event"}, "dur"),
    }
    # Uncovered time: the round span's own remainder on the main thread, and
    # on every other thread the campaign interval minus its top-level spans.
    rounds = [s for s in spans if s["name"] == "bench.round"]
    unattributed = sum(max(0, s["self"]) for s in rounds) * 1e-6
    campaigns = [s for s in spans if s["name"] == "campaign"]
    if campaigns:
        c = campaigns[0]
        main_tid = c["tid"]
        workers = [tid for tid, ts in by_tid.items()
                   if tid != main_tid and any(s["name"] == "pool.task" for s in ts)]
        busy = idle = 0
        for tid in workers:
            top = [s for s in by_tid[tid] if s["top"]]
            busy += sum(s["dur"] for s in top if s["name"] == "pool.task")
            idle += sum(s["dur"] for s in top if s["name"] == "pool.idle")
            unattributed += max(0, c["dur"] - sum(s["dur"] for s in top)) * 1e-6
        out["engine.queue_wait_s"] = idle * 1e-6
        if workers and c["dur"]:
            out["engine.worker_busy_share"] = busy / (len(workers) * c["dur"])
    out["unattributed_s"] = unattributed
    return out


# --- campaign artifacts ---------------------------------------------------------

def check_stream(report_path, stream_path, failures):
    """The NDJSON stream against the report it was written alongside."""
    with open(report_path) as f:
        report = json.load(f)
    with open(stream_path) as f:
        lines = [line for line in f.read().split("\n") if line]
    events = [json.loads(line) for line in lines]
    tag = " (%s)" % os.path.basename(stream_path)

    def window_tuple(job, label, w):
        return (job, label, w["k"], w["verdict"], w["conflicts"], len(w.get("attempts", [])),
                bool(w.get("budget_exhausted", False)))

    reported = sorted(window_tuple(j["id"], j["label"], w)
                      for j in report["jobs"] for w in j.get("windows", []))
    streamed = sorted((e["job"], e["label"], e["k"], e["verdict"], e["conflicts"],
                       e.get("attempts", 0), bool(e.get("budget_exhausted", False)))
                      for e in events if e.get("type") == "window")
    if reported != streamed:
        failures.append("streamed window events equal the report's windows" + tag)
    if len(lines) != report.get("observer", {}).get("lines_written"):
        failures.append("the stream's line count equals observer.lines_written" + tag)
    return report


def campaign_layers(report, journal_bytes):
    resched = report.get("reschedule", {})
    reduction = report.get("reduction", {})
    jobs = report["jobs"]
    windows = [w for j in jobs for w in j.get("windows", [])]
    profile = collections.Counter()
    for j in jobs:
        profile.update(j.get("profile", {}))
    conflicts = report["total_conflicts"]
    before = reduction.get("nodes_before", 0)
    return {
        "sat.conflicts": conflicts,
        "sat.propagations": report["total_propagations"],
        "sat.decisions": sum(w["decisions"] for w in windows),
        "formal.cnf_vars_peak": report["peak_vars"],
        "formal.cnf_clauses_peak": report["peak_clauses"],
        "sat.propagate_s": profile["propagate_us"] * 1e-6,
        "sat.analyze_s": profile["analyze_us"] * 1e-6,
        "sat.reduce_db_s": profile["reduce_db_us"] * 1e-6,
        "sat.restart_s": profile["restart_us"] * 1e-6,
        "rtl.nodes_removed_share": (1 - reduction["nodes_after"] / before) if before else 0.0,
        "engine.retry_attempts": resched.get("reschedule_attempts", 0),
        "engine.retry_conflict_share": (
            resched.get("reschedule_conflicts", 0) / conflicts if conflicts else 0.0),
        "engine.retry_decided_share": (
            resched["windows_decided_by_retry"] / resched["windows_rescheduled"]
            if resched.get("windows_rescheduled") else 0.0),
        "engine.journal_bytes": journal_bytes,
    }


# --- metrics ------------------------------------------------------------------

def end_to_end(raw):
    rounds = raw["rounds"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": raw["setup_s"],
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, out_dir, campaign_report):
    """Per-layer values of the traced round; 0 where a workload has no such work."""
    traced = raw["traced"]
    spans, by_tid, dropped = load_spans(os.path.join(out_dir, "trace.json"))
    values = collections.defaultdict(float)
    values.update({
        "soc.miter_build_s": raw["miter_build_s"],
        "formal.cnf_vars_peak": traced["vars_peak"],
        "formal.cnf_clauses_peak": traced["clauses_peak"],
        "sat.conflicts": traced["conflicts"],
        "sat.propagations": traced["propagations"],
        "sat.decisions": traced["decisions"],
        "sat.propagate_s": traced["propagate_s"],
        "sat.analyze_s": traced["analyze_s"],
        "sat.reduce_db_s": traced["reduce_db_s"],
        "sat.restart_s": traced["restart_s"],
        "upec.induction_s": traced["induction_s"],
    })
    values.update(layer_times(spans, by_tid))
    if campaign_report is not None:
        values.update(campaign_layers(campaign_report, raw["journal_bytes"]))
    solve = values["sat.solve_s"]
    values["sat.propagations_per_s"] = values["sat.propagations"] / solve if solve else 0.0
    values["sat.conflicts_per_s"] = values["sat.conflicts"] / solve if solve else 0.0
    untraced = statistics.median(r["wall_s"] for r in raw["rounds"])
    values["trace_overhead_share"] = traced["wall_s"] / untraced - 1
    return values, dropped


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="seeds the secret values of the directed-attack checks")
    ap.add_argument("--seconds", type=float, default=10,
                    help="measure whole rounds until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--secret-word", type=int, default=DEFAULT_SECRET_WORD,
                    help="the protected data-memory word of the formal workloads")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        log("run.py: the build failed")
        return 1
    out_dir = os.path.join(BUILD, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--secret-word", str(args.secret_word), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("run.py: upec_bench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        log("run.py: upec_bench failed (exit %d)" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])

    failures = list(raw["failed_checks"])
    campaign_report = None
    if args.workload == "campaign":
        campaign_report = check_stream(os.path.join(out_dir, "campaign_report.json"),
                                       os.path.join(out_dir, "campaign_events.ndjson"), failures)
        if args.trace:
            campaign_report = check_stream(
                os.path.join(out_dir, "campaign_report_traced.json"),
                os.path.join(out_dir, "campaign_events_traced.ndjson"), failures)

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.trace:
        values, dropped = per_layer(raw, out_dir, campaign_report)
        if dropped:
            failures.append("the trace recorder dropped %d events" % dropped)
        names = spec["per_layer"]
    else:
        values = end_to_end(raw)
        names = spec["end_to_end"]
    for what in failures:
        log("check failed: " + what)

    result = {
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
