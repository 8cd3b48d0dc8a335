"""End-to-end benchmark of ``decompose()`` and the decomposition service.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                       # every workload
    python3 benchmarks/e2e/run.py --workload serve-mix --seed 3 --seconds 25 --trace 1
    python3 benchmarks/e2e/run.py --seed 0 --trace --out benchmarks/e2e/out/traced.json

Each workload runs in a fresh subprocess (``e2e_run_one.py``), one after
another.  The command prints every metric with its unit, sample count and
quartiles, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits nonzero if
an output check fails or an operation fails.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones and writes one Chrome
trace per workload next to ``--out`` (default ``benchmarks/e2e/out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A workload process is killed after this long (a run must end within 180 s).
TIME_CAP = 170.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names, run length and metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def group_running(pgid: int) -> bool:
    """Whether a process of group ``pgid`` still runs.

    A zombie has ended; only its reaping is left, to an init process that
    may take a second or more.
    """
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process went away meanwhile
            continue
        if int(group) == pgid and state != "Z":
            return True
    return False


def stop_group(pgid: int, wait: float = 5.0) -> None:
    """Kill whatever a workload process left in its group and wait for it to end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + wait
    while group_running(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_child(workload: str, args, trace_dir: Path) -> dict:
    """Run one workload in its own process group and parse its JSON line."""
    cmd = [
        sys.executable, str(HERE / "e2e_run_one.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", str(trace_dir),
    ] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIME_CAP)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} did not finish within {TIME_CAP:.0f}s")
    finally:
        stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def print_table(result: dict) -> None:
    print(f"\n== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    print(f"   {'metric':40s} {'unit':>8s} {'n':>5s} {'value':>12s} {'q1':>12s} {'q3':>12s}")
    for name, m in result["metrics"].items():
        q1 = f"{m['q1']:12.6g}" if "q1" in m else f"{'':12s}"
        q3 = f"{m['q3']:12.6g}" if "q3" in m else f"{'':12s}"
        note = ""
        if "supported_tail" in m:
            tail = m["supported_tail"]
            note = f"  (n supports p{tail:g})" if tail else "  (n supports no tail percentile)"
        print(f"   {name:40s} {m['unit']:>8s} {m['n']:5d} {m['value']:12.6g} {q1} {q3}{note}")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def cross_checks(results: dict) -> list:
    """W1 and W2 run the same tensor, rank and HOOI seed: equal fits."""
    a = results.get("delicious-coo-seq", {}).get("extra", {}).get("fit")
    b = results.get("delicious-csf-proc2", {}).get("extra", {}).get("fit")
    if a is not None and b is not None and abs(a - b) > 1e-10:
        return [f"COO sequential fit {a!r} != CSF process fit {b!r}"]
    return []


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="End-to-end decompose() + serving benchmark")
    parser.add_argument("--workload", choices=workloads, action="append",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="write every workload's result here")
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    trace_dir = args.out.resolve().parent if args.out else HERE / "out"
    results = {}
    for workload in args.workload or workloads:
        try:
            results[workload] = run_child(workload, args, trace_dir)
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_table(results[workload])
    problems = cross_checks(results)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": results}, indent=1))

    single = len(results) == 1
    summary = {
        "correct": not problems and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (name if single else f"{w}.{name}"): {"value": m["value"], "unit": m["unit"]}
            for w, r in results.items() for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
