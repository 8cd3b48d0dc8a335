"""Benchmark: the persistent-pool service vs per-request pool spin-up.

The serving acceptance gate (ISSUE 7): a stream of ≥20 small decomposition
jobs through :class:`~repro.serving.DecompositionService` — one persistent
worker crew, each job one pool generation on it — must complete at
least ``REPRO_SERVING_SPEEDUP``× (default 1.5×) faster than the same jobs
run as back-to-back ``hooi(execution="process", crew=)`` calls, each on a
crew of its own, so that each pays worker spawn, shared-arena attach and
teardown on its own.  (A plain ``hooi(execution="process")`` call would
borrow the process's one crew and pay the spawn only once.)

The service's crew spawn and kernel warmup happen at ``start()`` and are
deliberately *excluded* from the timed region — amortizing that one-time
cost across requests is the subsystem's entire reason to exist — while the
per-request baseline's spawns are *included*, because that is exactly what
each stand-alone call pays.

Both paths are also registered as pytest-benchmark kernels so the committed
``BENCH_baseline.json`` tracks them and ``scripts/compare_bench.py`` gates
regressions (the "Serving throughput" CI step runs the acceptance test by
name before the aggregate comparison).

These 300-nnz jobs are far below the crew's break-even
(:data:`repro.engine.backend.CREW_BREAK_EVEN_FLOPS`), so the gate and the
two kernels pin it to 0 to keep both sides on workers.  Two count-based
companion tests hold on any host: pinned, the stream spawns the service's
crew once and serves one pool generation per job; under the real
break-even every job runs whole on one of the crew's workers and the
service serves no pool generation.
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro.core import HOOIOptions, hooi
from repro.data import random_sparse_tensor
from repro.engine import backend
from repro.parallel import process_pool
from repro.parallel.process_pool import PersistentWorkerCrew
from repro.serving import DecompositionService

#: Number of jobs in the stream (the acceptance gate requires >= 20).
NUM_JOBS = 20
SHAPE = (25, 20, 15)
NNZ = 300
RANK = 4

#: Worker-process count on BOTH sides of the comparison.  It must be >= 2:
#: at 1 the drivers' process backend short-circuits to sequential execution
#: and the baseline would measure no pool spin-up at all.
NUM_WORKERS = 2

#: Required service-over-spin-up throughput factor.
EXPECTED_SPEEDUP = float(os.environ.get("REPRO_SERVING_SPEEDUP", "1.5"))

#: Timed passes per side of the gate; it compares the best of each side.
TIMED_PASSES = 3

JOB_OPTIONS = dict(
    trsvd_method="gram", max_iterations=3, tolerance=0.0, seed=0
)

#: The crew's real break-even, read before any test pins it.
REAL_BREAK_EVEN_FLOPS = backend.CREW_BREAK_EVEN_FLOPS

pytestmark = pytest.mark.usefixtures("every_job_on_the_crew")


@pytest.fixture(scope="module")
def tensors():
    """Twenty distinct small tensors — distinct so the cache never hits."""
    return [
        random_sparse_tensor(SHAPE, NNZ, seed=100 + i)
        for i in range(NUM_JOBS)
    ]


def run_per_request(tensors) -> None:
    """The baseline: every job spawns (and reaps) its own worker crew."""
    options = HOOIOptions(
        execution="process", num_workers=NUM_WORKERS, **JOB_OPTIONS
    )
    for tensor in tensors:
        with PersistentWorkerCrew(NUM_WORKERS) as crew:
            hooi(tensor, RANK, options, crew=crew)


def run_service(service, tensors) -> None:
    """The service path: submit the whole stream, await every result."""

    async def main():
        handles = [
            await service.submit(
                tensor, RANK, execution="process", **JOB_OPTIONS
            )
            for tensor in tensors
        ]
        await asyncio.gather(*[h.result() for h in handles])

    service._loop.run_until_complete(main())


class _ServiceRunner:
    """A started service bound to a private event loop for sync callers."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = DecompositionService(
            num_workers=NUM_WORKERS, cache_capacity=0, warmup=True,
        )
        self.loop.run_until_complete(self.service.start())
        # Expose the loop the way run_service expects it.
        self.service._loop = self.loop

    def run(self, tensors) -> None:
        run_service(self.service, tensors)

    def close(self) -> None:
        self.loop.run_until_complete(self.service.aclose())
        self.loop.close()


def _seconds(run, tensors) -> float:
    start = time.perf_counter()
    run(tensors)
    return time.perf_counter() - start


def test_serving_beats_per_request_spinup(tensors):
    """The acceptance gate: ≥1.5× throughput on a 20-job stream.

    Each side runs ``TIMED_PASSES`` passes, interleaved with the other
    side's so both sample the same host load, and the gate compares the
    best pass of each: a single pass per side leaves the ratio to the
    host's noise.
    """
    runner = _ServiceRunner()
    try:
        runner.run(tensors)  # warm both paths once (JIT-free, but fair)
        run_per_request(tensors)
        service_passes, baseline_passes = [], []
        for _ in range(TIMED_PASSES):
            service_passes.append(_seconds(runner.run, tensors))
            baseline_passes.append(_seconds(run_per_request, tensors))
    finally:
        runner.close()

    service_seconds = min(service_passes)
    baseline_seconds = min(baseline_passes)
    speedup = baseline_seconds / service_seconds
    assert speedup >= EXPECTED_SPEEDUP, (
        f"persistent-pool service ran {NUM_JOBS} jobs in "
        f"{service_seconds:.3f}s vs {baseline_seconds:.3f}s per-request "
        f"spin-up (best of {TIMED_PASSES} passes each) — {speedup:.2f}x, "
        f"below the required {EXPECTED_SPEEDUP:.2f}x"
    )


def test_pooled_stream_reuses_one_crew(tensors, monkeypatch):
    """Pinned to the crew, the stream spawns it once: one generation per job.

    Count-based, so it holds on any host: the crew the service spawns at
    start serves all 20 jobs, each packed into its own generation, and no
    job spawns workers of its own.
    """
    spawned = []
    crew_class = process_pool.PersistentWorkerCrew

    def counting_crew(*args, **kwargs):
        spawned.append(crew_class(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(process_pool, "PersistentWorkerCrew", counting_crew)
    runner = _ServiceRunner()
    try:
        runner.run(tensors)
        metrics = runner.service.metrics()
    finally:
        runner.close()
    assert metrics["jobs"]["done"] == NUM_JOBS
    assert len(spawned) == 1
    assert metrics["pool"]["generations"] == NUM_JOBS
    assert metrics["pool"]["resets"] == 0


def test_small_stream_spawns_no_pool_generation(tensors, monkeypatch):
    """Under the real break-even the same stream never needs a generation.

    Count-based, so it holds on any host: all 20 jobs complete whole on
    the crew's idle workers, one job per worker at a time (the worker
    lane), and ``metrics()`` reports zero pool generations.
    """
    monkeypatch.setattr(backend, "CREW_BREAK_EVEN_FLOPS", REAL_BREAK_EVEN_FLOPS)
    runner = _ServiceRunner()
    try:
        runner.run(tensors)
        metrics = runner.service.metrics()
    finally:
        runner.close()
    assert metrics["jobs"]["done"] == NUM_JOBS
    assert metrics["pool"]["generations"] == 0


def test_stream_via_service(benchmark, tensors):
    runner = _ServiceRunner()
    try:
        benchmark.pedantic(
            runner.run, args=(tensors,), rounds=3, warmup_rounds=1
        )
    finally:
        runner.close()


def test_stream_per_request_pools(benchmark, tensors):
    benchmark.pedantic(
        run_per_request, args=(tensors,), rounds=3, warmup_rounds=1
    )
