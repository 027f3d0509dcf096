#!/usr/bin/env python3
"""Compares two sets of benchmark runs (stdlib only).

A set is a directory holding, per workload, the result lines of its runs
(the last stdout line of run.py), one per line, in <workload>.jsonl, and
those of its traced runs in <workload>.traced.jsonl:

    for s in $(seq 1 10); do
      python3 benchmark/run.py --workload hunt --seed $s --seconds 10 \
        | tail -1 >> DIR/hunt.jsonl
    done

Compare a parent's set with a change's set:

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

For each workload and end-to-end metric the diff prints both sides' median
and quartiles, how many run pairs (i-th run against i-th run, the same seed
when both sets were collected alike) each side won, and a verdict:

  unresolved  either side's inter-quartile spread, as a share of its median,
              is wider than the metric's bound in BENCHMARK.json;
  improved    the change wins at least 9 of every 10 pairs and the medians
              differ by more than the parent's inter-quartile spread;
  regressed   the same with the sides swapped;
  same        anything else.

Where both sides have traced runs it also prints the per-layer medians and
their deltas.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def load_lines(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_of(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def wins(base, change, better):
    """(pairs the parent won, pairs the change won, pairs); ties count for neither."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(base, change))
    return (sum(1 for b, c in pairs if sign * (c - b) > 0),
            sum(1 for b, c in pairs if sign * (b - c) > 0), len(pairs))


def verdict(base, change, better, bound):
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    if (b3 - b1) > bound * abs(bmed) or (c3 - c1) > bound * abs(cmed):
        return "unresolved"
    base_wins, change_wins, n = wins(base, change, better)
    apart = abs(cmed - bmed) > (b3 - b1)
    if n and change_wins * 10 >= 9 * n and apart:
        return "improved"
    if n and base_wins * 10 >= 9 * n and apart:
        return "regressed"
    return "same"


def diff(parent_dir, change_dir):
    spec = load_spec()
    for workload in (w["name"] for w in spec["workloads"]):
        base = load_lines(os.path.join(parent_dir, workload + ".jsonl"))
        change = load_lines(os.path.join(change_dir, workload + ".jsonl"))
        if not base or not change:
            continue
        print("== %s: %d parent runs, %d change runs" % (workload, len(base), len(change)))
        for side, runs in (("parent", base), ("change", change)):
            failed = sorted({(r["failed"], r["attempted"]) for r in runs})
            incorrect = sum(1 for r in runs if not r["correct"])
            print("   %s: failed/attempted %s, incorrect runs %d" % (side, failed, incorrect))
        print("   %-12s %-30s %-30s %-13s %s" % ("metric", "parent q1/median/q3",
                                               "change q1/median/q3", "wins p/c", "verdict"))
        for m in spec["end_to_end"]:
            b = values_of(base, m["name"])
            c = values_of(change, m["name"])
            if not b or not c:
                continue
            bq = "%.4g/%.4g/%.4g" % quartiles(b)
            cq = "%.4g/%.4g/%.4g" % quartiles(c)
            pw, cw, n = wins(b, c, m["better"])
            print("   %-12s %-30s %-30s %-13s %s" % (m["name"], bq, cq, "%d/%d of %d" % (pw, cw, n),
                                                   verdict(b, c, m["better"], m["bound"])))
        base_t = load_lines(os.path.join(parent_dir, workload + ".traced.jsonl"))
        change_t = load_lines(os.path.join(change_dir, workload + ".traced.jsonl"))
        if base_t and change_t:
            print("   per layer (traced medians):")
            for m in spec["per_layer"]:
                b = values_of(base_t, m["name"])
                c = values_of(change_t, m["name"])
                if not b or not c:
                    continue
                bmed, cmed = statistics.median(b), statistics.median(c)
                rel = "%+.1f%%" % (100 * (cmed - bmed) / abs(bmed)) if bmed else "-"
                print("     %-30s %12.5g -> %-12.5g %8s  (%s is better)" % (
                    m["name"], bmed, cmed, rel, m["better"]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    args = ap.parse_args()
    return diff(args.parent_dir, args.change_dir)


if __name__ == "__main__":
    sys.exit(main())
