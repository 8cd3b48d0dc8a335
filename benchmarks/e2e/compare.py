"""Compare two sets of end-to-end benchmark results against BENCHMARK.json bounds.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py --base out/base-*.json --new out/new-*.json

Each file is a ``run.py --out`` result (one run; any subset of workloads).
For every (workload, end-to-end metric) the command prints both sides'
median, quartiles and run count, how much worse the new median is than the
base median (negative: better), and a verdict against the metric's
``bound``:

* ``regression`` — the new median is worse by more than the bound;
* ``better`` / ``same`` — better by more than the bound, or within it;
* ``unresolved`` — either side has fewer than ``MIN_RUNS`` runs, or its
  quartile spread exceeds the bound, so the medians cannot be told apart
  (unless every new run beats every base run).

It exits 1 on any regression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from e2e_stats import quartiles, relative_spread
from run import load_spec

#: Runs each side needs before its spread, and so a verdict, means anything.
MIN_RUNS = 3


def load(paths: List[Path]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> [value per run]`` over result files."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for path in paths:
        data = json.loads(path.read_text())
        for workload, result in data["workloads"].items():
            for name, m in result["metrics"].items():
                values[(workload, name)].append(float(m["value"]))
    return values


def verdict(base: List[float], new: List[float], better: str, bound: float) -> Tuple[str, float]:
    """The verdict and the relative change of the new median (positive = worse)."""
    b, n = quartiles(base)[1], quartiles(new)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n - b) / abs(b)
    enough = min(len(base), len(new)) >= MIN_RUNS
    too_wide = max(relative_spread(base), relative_spread(new)) > bound
    all_better = all(sign * (x - y) < 0 for x in new for y in base)
    if not enough or (too_wide and not all_better):
        return "unresolved", worse_by
    if worse_by > bound:
        return "regression", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)

    spec = load_spec()
    base, new = load(args.base), load(args.new)
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    fmt = "{:22s} {:20s} {:>30s} {:>30s} {:>8s} {:>6s}  {}"
    print(fmt.format("workload", "metric", "base median [q1, q3] (n)",
                     "new median [q1, q3] (n)", "worse by", "bound", "verdict"))
    regressions = 0
    for workload in workloads:
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if not base.get(key) or not new.get(key):
                continue
            sides = []
            for values in (base[key], new[key]):
                q1, med, q3 = quartiles(values)
                sides.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})")
            result, change = verdict(base[key], new[key], m["better"], m["bound"])
            regressions += result == "regression"
            print(fmt.format(workload, m["name"], *sides, f"{change:+.1%}",
                             f"{m['bound']:.0%}", result))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
