"""Benchmark: sequential vs thread vs process TTMc sweep (true multicore).

One HOOI-sweep-worth of TTMc — every mode's ``Y_(n)`` on a 4-mode power-law
tensor — executed three ways: the sequential kernel, the GIL-bound thread
pool, and the zero-copy multiprocess pool at 1/2/4 workers.  The thread
variant decomposes the work exactly like the paper's Algorithm 3 but cannot
beat sequential wall-clock in CPython (the hot gather/Kronecker/segment-sum
work holds the GIL); the process variant runs the same row-parallel
lock-free decomposition on worker processes against shared memory, so with
real cores it shows real speedup.

Pool startup (symbolic construction + segment setup + worker attach) is
excluded from the timed region — it is a once-per-run cost the persistent
pool exists to amortize.  The speedup acceptance test is gated on the CPUs
actually available to this container (``REPRO_PROCESS_SPEEDUP`` overrides
the expected factor): on a single-CPU box the assertion is skipped because
no amount of software can make four workers faster than one core.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import SymbolicTTMc, ttmc_matricized
from repro.core.kron import kron_row_length
from repro.data import power_law_sparse_tensor
from repro.engine import COORowsPlan, ThreadDispatcher, WorkspacePool
from repro.parallel import HOOIProcessPool, ParallelConfig, ProcessConfig
from repro.util.linalg import random_orthonormal
from sweep_utils import interleaved_median_times

RANK = 8
SHAPE = (70, 60, 50, 45)
NNZ = 30_000
WORKER_COUNTS = (1, 2, 4)


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def tensor():
    return power_law_sparse_tensor(SHAPE, NNZ, exponents=0.7, seed=0)


@pytest.fixture(scope="module")
def factors(tensor):
    return [
        random_orthonormal(s, RANK, seed=i) for i, s in enumerate(tensor.shape)
    ]


@pytest.fixture(scope="module")
def symbolic(tensor):
    return SymbolicTTMc(tensor)


def _sequential_sweep(tensor, factors, symbolic, pool):
    width = kron_row_length([RANK] * (tensor.order - 1))
    for mode in range(tensor.order):
        out = pool.take((tensor.shape[mode], width), tensor.dtype,
                        tag=f"out-{mode}")
        ttmc_matricized(
            tensor, factors, mode,
            symbolic=symbolic[mode], out=out,
        )


def _coo_plan(tensor, symbolic):
    return COORowsPlan(
        tensor,
        {mode: symbolic[mode] for mode in range(tensor.order)},
        [RANK] * tensor.order,
    )


def _threaded_sweep(tensor, factors, symbolic, pool, config):
    width = kron_row_length([RANK] * (tensor.order - 1))
    plan = _coo_plan(tensor, symbolic)
    threads = ThreadDispatcher(config)
    for mode in range(tensor.order):
        out = pool.take((tensor.shape[mode], width), tensor.dtype,
                        tag=f"out-{mode}")
        out[...] = 0
        threads.ttmc(plan, mode, factors, out=out)


def _process_sweep(pool, order):
    for mode in range(order):
        pool.ttmc(mode)


def _make_process_pool(tensor, factors, symbolic, workers):
    pool = HOOIProcessPool.for_plans(
        {None: _coo_plan(tensor, symbolic)},
        config=ProcessConfig(num_workers=workers),
    )
    for mode, factor in enumerate(factors):
        pool.write_factor(mode, factor)
    return pool


def test_sweep_sequential(benchmark, tensor, factors, symbolic):
    pool = WorkspacePool()
    benchmark.pedantic(
        _sequential_sweep,
        args=(tensor, factors, symbolic, pool),
        rounds=3,
        warmup_rounds=1,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sweep_thread(benchmark, tensor, factors, symbolic, workers):
    pool = WorkspacePool()
    config = ParallelConfig(num_threads=workers)
    benchmark.pedantic(
        _threaded_sweep,
        args=(tensor, factors, symbolic, pool, config),
        rounds=3,
        warmup_rounds=1,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sweep_process(benchmark, tensor, factors, symbolic, workers):
    with _make_process_pool(tensor, factors, symbolic, workers) as pool:
        benchmark.pedantic(
            _process_sweep,
            args=(pool, tensor.order),
            rounds=3,
            warmup_rounds=1,
        )


def test_process_sweep_matches_sequential(tensor, factors, symbolic):
    """The shared-memory results must match the kernel to 1e-10 exactly."""
    with _make_process_pool(tensor, factors, symbolic, 2) as pool:
        for mode in range(tensor.order):
            expected = ttmc_matricized(
                tensor, factors, mode, symbolic=symbolic[mode]
            )
            assert np.allclose(pool.ttmc(mode), expected, atol=1e-10)
        names = pool.segment_names
    leftovers = [
        name for name in names if os.path.exists(os.path.join("/dev/shm", name))
    ]
    assert leftovers == [], f"leaked shared-memory segments: {leftovers}"


@pytest.mark.skipif(
    available_cpus() < 2,
    reason="wall-clock multicore speedup needs >= 2 CPUs "
    f"(this container exposes {available_cpus()})",
)
def test_process_beats_sequential(tensor, factors, symbolic):
    """Acceptance gate: 4 process workers beat sequential on real cores.

    The expected factor is >= 2x on >= 4 CPUs (the row-parallel TTMc is
    embarrassingly parallel and the chunk descriptors are tiny); with only
    2-3 CPUs any speedup at all is required.  Override with
    ``REPRO_PROCESS_SPEEDUP`` when gating on unusual hardware.

    The pool warms up for a wall-clock second rather than one round: on a
    virtualized 2-CPU host, the first 0.5-1 s of two-CPU load after an idle
    spell ran the process sweep at about half speed (~100 ms against
    ~45 ms settled), while the sequential sweep needs only one CPU.  The
    timed rounds are then interleaved, like the sweep gates, so both sides
    sample the same machine noise.
    """
    cpus = available_cpus()
    default_target = 2.0 if cpus >= 4 else 1.05
    target = float(os.environ.get("REPRO_PROCESS_SPEEDUP", default_target))

    seq_pool = WorkspacePool()
    _sequential_sweep(tensor, factors, symbolic, seq_pool)  # warm-up
    with _make_process_pool(tensor, factors, symbolic, 4) as pool:
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            _process_sweep(pool, tensor.order)  # warm-up
        sequential, process = interleaved_median_times(
            [
                (_sequential_sweep, (tensor, factors, symbolic, seq_pool)),
                (_process_sweep, (pool, tensor.order)),
            ],
            rounds=7,
        )

    speedup = sequential / process
    assert speedup >= target, (
        f"process pool (4 workers) achieved {speedup:.2f}x vs sequential "
        f"({process * 1e3:.1f} ms vs {sequential * 1e3:.1f} ms) on {cpus} "
        f"CPUs; expected >= {target:.2f}x"
    )
