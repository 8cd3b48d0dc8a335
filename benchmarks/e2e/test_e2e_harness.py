"""Fast checks of the end-to-end benchmark harness itself."""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from compare import verdict
from e2e_spans import SpanRecorder, covered_length
from e2e_stats import percentile, quartiles, samples_beyond, supported_tail, window_rates
from e2e_workloads import (
    SERVE_BLOCK,
    SERVE_REQUESTS,
    WORKLOADS,
    BatchWorkload,
    make_delta,
    serve_inputs,
    serve_plan,
)
from run import load_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(400, 95) == 20
    assert supported_tail(400) == 95.0
    assert supported_tail(100) == 90.0
    assert supported_tail(1000) == 99.0
    assert supported_tail(60) is None
    assert percentile(list(range(1, 11)), 50) == 5
    assert percentile(list(range(1, 11)), 95) == 10
    assert percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_and_window_rates():
    assert quartiles([2.0]) == [2.0, 2.0, 2.0]
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0
    # Completions every 0.5 s: each window of 2 spans 1 s.
    assert window_rates([0.5 * i for i in range(9)], 2) == [2.0] * 4


def test_span_self_time_subtracts_the_union_of_children():
    rec = SpanRecorder()
    parent = rec.add("sweep", 0.0, 10.0)
    rec.add("ttmc", 1.0, 4.0, parent=parent)
    rec.add("pool.ttmc", 2.0, 3.0, parent=1)
    rec.add("trsvd", 3.0, 6.0, parent=parent)  # overlaps ttmc by 1 s
    rec.add("late", 9.0, 12.0, parent=parent)  # sticks out of its parent
    assert rec.self_times() == pytest.approx([10.0 - 6.0, 2.0, 1.0, 3.0, 3.0])
    assert covered_length([(0, 1), (0.5, 2), (5, 6)], 0, 10) == pytest.approx(3.0)
    events = [e for e in rec.chrome_trace(process_name="t")["traceEvents"] if e["ph"] == "X"]
    assert [e["args"]["self_us"] for e in events[:2]] == [4e6, 2e6]


def test_nested_spans_close_in_order():
    rec = SpanRecorder()
    outer = rec.begin("run")
    with rec.span("setup"):
        pass
    with pytest.raises(RuntimeError):
        rec.end(1)
    rec.end(outer)
    assert [s.parent for s in rec.spans] == [None, 0]


def test_same_seed_gives_same_inputs():
    for w in WORKLOADS.values():
        if isinstance(w, BatchWorkload):
            assert w.make_tensor(3, True).fingerprint() == w.make_tensor(3, True).fingerprint()
            assert w.make_tensor(3, True).fingerprint() != w.make_tensor(4, True).fingerprint()
    a, b, c = serve_inputs(3, True), serve_inputs(3, True), serve_inputs(4, True)
    assert a.plan == b.plan
    assert [t.fingerprint() for t in a.tensors.values()] == [
        t.fingerprint() for t in b.tensors.values()
    ]
    assert [d.fingerprint() for d in a.batches.values()] == [
        d.fingerprint() for d in b.batches.values()
    ]
    assert [t.fingerprint() for t in a.tensors.values()] != [
        t.fingerprint() for t in c.tensors.values()
    ]
    deltas = [make_delta(np.random.default_rng([3, 1]), (10, 10, 10)) for _ in range(2)]
    assert deltas[0].fingerprint() == deltas[1].fingerprint()


def test_serve_plan_keeps_the_mix_and_refers_back():
    plan = serve_plan(5, SERVE_REQUESTS)
    block = len(SERVE_BLOCK)
    for lo in range(block, len(plan), block):  # the first block may turn refs into fresh
        kinds = sorted(kind for kind, _ in plan[lo:lo + block])
        assert kinds == sorted(SERVE_BLOCK)
    for i, (kind, ref) in enumerate(plan):
        assert (ref is None) == (kind == "fresh")
        if ref is not None:
            assert plan[ref][0] == "fresh" and ref <= i - 2


def test_compare_verdicts():
    assert verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "lower", 0.1)[0] == "regression"
    assert verdict([1.0, 1.01, 0.99], [1.02, 1.0, 1.01], "lower", 0.1)[0] == "same"
    assert verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "higher", 0.1)[0] == "better"
    assert verdict([1.0, 2.0, 3.0], [1.2, 2.2, 3.2], "lower", 0.1)[0] == "unresolved"
    # One run a side says nothing about the spread.
    assert verdict([1.0], [1.5], "lower", 0.1)[0] == "unresolved"


def test_tiny_run_of_every_workload_untraced_and_traced(tmp_path):
    spec = load_spec()
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]

    def run_tiny(run_id):
        name, trace = run_id
        return subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
             "--seconds", "0.2", "--tiny", "--trace", str(trace),
             "--out", str(tmp_path / f"{name}-{trace}.json")],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )

    # Two commands at a time, one per CPU, to keep the test short.
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(run_tiny, runs))
    for (name, trace), proc in zip(runs, done):
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] and summary["failed"] == 0
        assert {k: m["unit"] for k, m in summary["metrics"].items()} == declared[trace]
        if trace == 0:  # end-to-end metrics are never 0
            assert all(m["value"] > 0 for m in summary["metrics"].values())
    for name in WORKLOADS:
        trace = json.loads((tmp_path / f"trace-{name}-seed0.json").read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"decompose", "setup", "sweep", "ttmc", "trsvd"} <= names
