"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts one such process per workload, so peak RSS and worker
pools never carry over from one workload to the next::

    PYTHONPATH=src python benchmarks/e2e/e2e_run_one.py \\
        --workload delicious-coo-seq --seed 0 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional

from e2e_layers import trace_workload
from e2e_workloads import WORKLOADS, ServeWorkload, e2e_metrics, run_batch, run_serve
from run import load_spec


def with_units(metrics: Dict[str, dict], declared: list) -> Dict[str, dict]:
    """``metrics`` in ``BENCHMARK.json`` order, each with its declared unit.

    The harness must report exactly the metrics the file declares.
    """
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise RuntimeError(
            f"metrics out of sync with BENCHMARK.json: {sorted(set(names) ^ set(metrics))}"
        )
    return {m["name"]: dict(metrics[m["name"]], unit=m["unit"]) for m in declared}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 trace_dir: Optional[Path]) -> dict:
    """Run one workload; the dict holds the result-line keys plus diagnostics."""
    spec = load_spec()
    w = WORKLOADS[name]
    if trace:
        rec, layers = trace_workload(name, w, seed, seconds, tiny, trace_dir)
        metrics = with_units({k: {"value": float(v), "n": 1} for k, v in layers.items()},
                             spec["per_layer"])
    else:
        if isinstance(w, ServeWorkload):
            rec = run_serve(seed, seconds, tiny)
        else:
            rec = run_batch(w, w.make_tensor(seed, tiny), seed, seconds)
        metrics = with_units(e2e_metrics(rec), spec["end_to_end"])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
        "problems": rec.problems,
        "extra": rec.extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)
    out = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.trace_dir
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
