#!/usr/bin/env python3
"""Compares two directories of end-to-end benchmark results, A (the parent)
and B (the change), workload by workload and metric by metric.

    benchmark/run.sh compare A/ B/

Each directory holds the result files run.sh --out wrote, at least ten runs
per workload, made alternately by the caller (A, B, A, B, ...). The i-th run
of A is paired with the i-th run of B; a pair whose input digests or run
lengths differ is refused. Per workload x metric the table gives each side's
median and quartiles, the share of pairs B won (ties count for neither) and a
verdict:

  improved      B won >= 90% of pairs and the medians differ by more than
                A's interquartile range
  unresolved    the spread (IQR / median) of A or B is wider than the
                metric's bound, and not every run of B beats every run of A
  regressed     B's median is worse than A's by more than the bound
  within bound  otherwise

A workload where any run of B has more failed requests than its paired run
of A is regressed whatever its metrics say: a change that answers part of the
traffic with a fast error must not pass as faster.

Exit codes: 0 no regression, 1 a regression, 2 unusable input.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

MIN_RUNS = 10


def load_runs(directory):
    """End-to-end results per workload, in the order they were run."""
    runs = {}
    for path in Path(directory).glob("*.json"):
        result = json.loads(path.read_text())
        if result.get("trace") is not False:
            continue
        started = int(re.search(r"-(\d+)\.json$", path.name).group(1))
        runs.setdefault(result["workload"], []).append((started, result))
    return {w: [r for _, r in sorted(rs, key=lambda x: x[0])] for w, rs in runs.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Returns (verdict, share of pairs B won)."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    spread = max((qa[2] - qa[0]) / abs(med_a) if med_a else 0,
                 (qb[2] - qb[0]) / abs(med_b) if med_b else 0)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    worse_by = sign * (med_a - med_b) / abs(med_a) if med_a else 0
    if won >= 0.9 and sign * (med_b - med_a) > qa[2] - qa[0]:
        return "improved", won
    if spread > bound and not all_better:
        return "unresolved", won
    if worse_by > bound:
        return "regressed", won
    return "within bound", won


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="BENCHMARK.json")
    parser.add_argument("a", help="results of the parent commit")
    parser.add_argument("b", help="results of the change")
    args = parser.parse_args()
    metrics = json.loads(Path(args.spec).read_text())["end_to_end"]
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    workloads = sorted(set(runs_a) & set(runs_b))
    if not workloads:
        print("compare: no workload has end-to-end results in both directories", file=sys.stderr)
        return 2

    counts = {}
    print(f"{'workload':16} {'metric':22} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'B won':>6}  verdict")
    for workload in workloads:
        a_runs, b_runs = runs_a[workload], runs_b[workload]
        n = min(len(a_runs), len(b_runs))
        if n < MIN_RUNS:
            print(f"compare: {workload} has {len(a_runs)} / {len(b_runs)} runs; "
                  f"at least {MIN_RUNS} each are needed, verdicts are unresolved",
                  file=sys.stderr)
        for i, (ra, rb) in enumerate(zip(a_runs, b_runs)):
            if (ra["digest"], ra["seconds"]) != (rb["digest"], rb["seconds"]):
                print(f"compare: {workload} pair {i} differs in inputs or length "
                      f"(seed {ra['seed']} vs {rb['seed']}, {ra['seconds']} s vs "
                      f"{rb['seconds']} s); refusing to compare", file=sys.stderr)
                return 2
        more_failed = [i for i, (ra, rb) in enumerate(zip(a_runs, b_runs))
                       if rb["failed"] > ra["failed"]]
        if more_failed:
            counts["regressed"] = counts.get("regressed", 0) + 1
            print(f"{workload:16} {'failed':22} B failed more requests than A in pairs "
                  f"{more_failed}  regressed")
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs[:n]]
            b = [r["metrics"][name]["value"] for r in b_runs[:n]]
            result, won = verdict(a, b, metric["better"], metric["bound"])
            if n < MIN_RUNS:
                result = "unresolved"
            counts[result] = counts.get(result, 0) + 1
            side_a, side_b = (f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                              for q in (quartiles(a), quartiles(b)))
            print(f"{workload:16} {name:22} {side_a:>32} {side_b:>32} {won:>6.0%}  "
                  f"{result} (bound {metric['bound']:.0%}, {metric['unit']})")
    print("summary: " + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
