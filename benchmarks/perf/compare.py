#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent commit vs change.

Usage::

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR [--top N]

Each directory holds the run records ``run.py --out DIR`` writes (any
number of runs per workload, typically one per seed).  For every
(workload, end-to-end metric) it prints each side's median and
quartiles over its runs and a verdict, using the bounds in
``BENCHMARK.json``:

- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: the spread between one side's runs (quartile
  distance over the parent median) is wider than the bound, unless
  every change run reads better than every parent run (``better``);
- ``better``: the change wins at least nine tenths of the seed-paired
  runs and the medians differ by more than the parent's own spread;
- ``unchanged``: none of the above.

From traced runs it also prints, per workload, the largest per-layer
``self_s`` differences.  Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from run import SPEC_FILE, quartiles


def load_runs(directory: str) -> List[dict]:
    """Every run record in ``directory`` (Chrome traces skipped)."""
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        runs.append(json.loads(path.read_text()))
    if not runs:
        raise SystemExit(f"no run records in {directory}")
    return runs


def by_seed(runs: List[dict], workload: str, trace: int, metric: str) -> Dict[int, List[float]]:
    out: Dict[int, List[float]] = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            value = run["metrics"].get(metric)
            if value is not None:
                out.setdefault(run["seed"], []).append(value["median"])
    return out


def flat(runs: Dict[int, List[float]]) -> List[float]:
    return [v for vs in runs.values() for v in vs]


def verdict(
    parent: Dict[int, List[float]],
    change: Dict[int, List[float]],
    bound: float,
    lower_is_better: bool,
) -> str:
    """``worse`` / ``unresolved`` / ``better`` / ``unchanged`` for one
    metric, from per-seed run values."""
    pq, cq = quartiles(flat(parent)), quartiles(flat(change))
    pm, cm = pq["median"], cq["median"]
    p_spread = pq["q3"] - pq["q1"]
    sign = 1.0 if lower_is_better else -1.0
    better = lambda a, b: sign * (a - b) < 0  # noqa: E731  (a beats b)
    every_run_better = all(
        better(c, p) for c in flat(change) for p in flat(parent)
    )
    if max(p_spread, cq["q3"] - cq["q1"]) / pm > bound:
        return "better" if every_run_better else "unresolved"
    if sign * (cm - pm) / pm > bound:
        return "worse"
    pairs = [
        (c, p)
        for seed in parent.keys() & change.keys()
        for c, p in zip(change[seed], parent[seed])
    ]
    wins = (
        sum(1 for c, p in pairs if better(c, p)) / len(pairs)
        if pairs else float(every_run_better)
    )
    if wins >= 0.9 and better(cm, pm) and abs(cm - pm) > p_spread:
        return "better"
    return "unchanged"


def fmt(values: List[float]) -> str:
    q = quartiles(values)
    return f"{q['median']:.5g} [{q['q1']:.5g}, {q['q3']:.5g}] n={q['n']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two run sets.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--top", type=int, default=10,
                        help="per-layer rows per workload")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_FILE.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)

    worse = 0
    print(f"{'workload':14s} {'metric':14s} {'parent':36s} {'change':36s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    for wl in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            p = by_seed(parent, wl, 0, m["name"])
            c = by_seed(change, wl, 0, m["name"])
            if not p or not c:
                continue
            v = verdict(p, c, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            pm, cm = statistics.median(flat(p)), statistics.median(flat(c))
            print(f"{wl:14s} {m['name']:14s} {fmt(flat(p)):36s} "
                  f"{fmt(flat(c)):36s} {(cm - pm) / pm:+8.2%} "
                  f"{m['bound']:6.0%}  {v}")

    self_metrics = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".self_s")]
    for wl in (w["name"] for w in spec["workloads"]):
        rows = []
        for name in self_metrics:
            p = flat(by_seed(parent, wl, 1, name))
            c = flat(by_seed(change, wl, 1, name))
            if p and c and (max(p) > 0 or max(c) > 0):
                pm, cm = statistics.median(p), statistics.median(c)
                rows.append((abs(cm - pm), name, pm, cm))
        if rows:
            print(f"\n{wl}: per-layer self time, parent -> change (traced runs)")
            for _, name, pm, cm in sorted(rows, reverse=True)[: args.top]:
                rel = f"{(cm - pm) / pm:+.1%}" if pm else "new"
                print(f"  {name:44s} {pm * 1e3:10.3f} ms -> {cm * 1e3:10.3f} ms"
                      f"  {(cm - pm) * 1e3:+10.3f} ms ({rel})")
    if worse:
        print(f"\n{worse} regression(s) beyond the benchmark's bounds")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
