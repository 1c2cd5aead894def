#!/usr/bin/env python3
"""Compare two sets of perfbench results against BENCHMARK.json's bounds.

    python3 tools/bench_compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are files (or directories of files) holding the output
of `perfbench/run.py`, one run per file or several runs' result lines in
one file: every line that parses as a JSON object with a "metrics" key is
one run. Runs are paired in the order they are read (sorted file names,
then line order), which is the order of alternated parent/change runs.

For each end-to-end metric declared in BENCHMARK.json, prints the median
and interquartile range of either side, the change/parent ratio of the
medians, how many pairs the change won, and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (relative);
  unresolved  the parent's interquartile range is wider than the bound
              (relative to its median), so the runs cannot tell a
              regression from noise, and not every change run beats
              every parent run;
  gain        the change won at least 9 of 10 pairs and its median beats
              the parent's by more than the parent's interquartile range;
  same        anything else.

It also prints the share of failed operations on either side, and warns
when fewer than 10 pairs were run or the two sides ran a different number
of times. Exits 1 when any metric is "worse" or "unresolved" or the
change fails a larger share of operations, else 0.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_runs(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    result = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(result, dict) and "metrics" in result:
                    runs.append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def failure_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return failed / attempted if attempted else 0.0


def compare(parent, change, metrics):
    """Rows of (name, parent values, change values, verdict, detail)."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in parent
             if name in r["metrics"]]
        c = [r["metrics"][name]["value"] for r in change
             if name in r["metrics"]]
        if not p or not c:
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        pq1, pq3 = quartiles(p)
        cq1, cq3 = quartiles(c)
        pairs = list(zip(p, c))
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in pairs)
        ratio = cm / pm if pm else float("inf")
        better_by = pm - cm if lower else cm - pm
        worse_by = -better_by / abs(pm) if pm else 0.0
        spread = (pq3 - pq1) / abs(pm) if pm else 0.0
        all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
        if worse_by > metric["bound"]:
            verdict = "worse"
        elif spread > metric["bound"] and not all_better:
            verdict = "unresolved"
        elif pairs and wins >= 0.9 * len(pairs) and better_by > pq3 - pq1:
            verdict = "gain"
        else:
            verdict = "same"
        rows.append((name, metric.get("unit", ""), (pm, pq1, pq3),
                     (cm, cq1, cq3), ratio, wins, len(pairs),
                     metric["bound"], verdict))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = read_runs(args.parent), read_runs(args.change)
    if not parent or not change:
        print("bench_compare: no result lines in "
              + (args.parent if not parent else args.change),
              file=sys.stderr)
        return 2

    print(f"runs: parent {len(parent)}, change {len(change)}")
    if len(parent) != len(change):
        print("warning: the two sides ran a different number of times; "
              "pairs are cut to the shorter side", file=sys.stderr)
    if min(len(parent), len(change)) < 10:
        print("warning: fewer than 10 pairs; a gain needs at least 10",
              file=sys.stderr)
    print(f"{'metric':<18} {'parent median [q1-q3]':>30} "
          f"{'change median [q1-q3]':>30} {'ratio':>7} {'wins':>6} "
          f"{'bound':>6}  verdict")
    bad = False
    for (name, unit, p, c, ratio, wins, pairs, bound,
         verdict) in compare(parent, change, metrics):
        fmt = lambda m: f"{m[0]:.4g} [{m[1]:.4g}-{m[2]:.4g}] {unit}"
        print(f"{name:<18} {fmt(p):>30} {fmt(c):>30} {ratio:>7.3f} "
              f"{wins:>3}/{pairs:<2} {bound:>6.2f}  {verdict}")
        bad |= verdict in ("worse", "unresolved")
    pf, cf = failure_share(parent), failure_share(change)
    print(f"failed operations: parent {pf:.4%}, change {cf:.4%}")
    bad |= cf > pf
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
