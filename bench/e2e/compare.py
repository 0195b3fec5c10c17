#!/usr/bin/env python3
"""A/B comparison of two checkouts on the end-to-end benchmark.

  python3 bench/e2e/compare.py --parent DIR --change DIR [--workload W ...]
      [--json OUT]

DIR is the root of a checkout holding bench/e2e/run.py and BENCHMARK.json;
each side builds and runs its own copy there, for the run length its
BENCHMARK.json fixes. Pair i runs both sides on seed i+1, alternating
which side goes first, for 10 pairs per workload. For every workload and
end-to-end metric of the change's BENCHMARK.json it prints each side's
median and quartiles, the change's win share and a verdict:

  regressed     the change failed more operations than the parent on the
                workload (every metric of it), or the change's median is
                worse than the parent's by more than the metric's bound;
  improved      the change wins >= 90% of pairs (ties count for neither)
                and the medians differ by more than the parent's
                interquartile range;
  slower, within bound
                the same test the other way round: a measured slowdown
                that the bound, set by the noisiest workload, still allows;
  unresolved    the parent's spread (IQR / median) is wider than the bound
                and not every change run beats every parent run;
  within bound  otherwise.

Comparing a checkout with itself gives two run sets of the same code,
with their spreads: the stability check bench/e2e/README.md records.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_side(root, workload, seed):
    """One untraced run; returns (metric values, attempted, failed)."""
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"compare.py: {' '.join(cmd)} in {root} exited "
                 f"{proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["attempted"], result["failed"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, more_failures):
    sign = 1.0 if better == "lower" else -1.0  # > 0: the change is better
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    spread = (p3 - p1) / pm
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    share = wins / len(parent)
    if more_failures or sign * (cm - pm) / pm > bound:
        return share, "regressed"
    if share >= 0.9 and sign * (pm - cm) > p3 - p1:
        return share, "improved"
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if losses >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return share, "slower, within bound"
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if spread > bound and not all_better:
        return share, "unresolved"
    return share, "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", type=Path, help="write raw values here")
    args = parser.parse_args()

    with open(args.change / "BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    raw = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        attempted = {"parent": 0, "change": 0}
        failed = {"parent": 0, "change": 0}
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                values, tried, bad = run_side(sides[side], workload, i + 1)
                runs[side].append(values)
                attempted[side] += tried
                failed[side] += bad
        raw[workload] = {"runs": runs, "attempted": attempted,
                         "failed": failed}
        more_failures = failed["change"] > failed["parent"]
        print(f"\n{workload} ({PAIRS} pairs, {bench['run_seconds']} s runs)")
        print(f"  failed / attempted: parent {failed['parent']} / "
              f"{attempted['parent']}, change {failed['change']} / "
              f"{attempted['change']}")
        print(f"  {'metric':<20} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            share, word = verdict(parent, change, spec["better"],
                                  spec["bound"], more_failures)
            cells = []
            for values in (parent, change):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"{(q3 - q1) / q2:6.1%}")
            print(f"  {name:<20} {cells[0]:>34} {cells[1]:>34} "
                  f"{share:5.0%}  {word} (bound {spec['bound']:.0%})")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
