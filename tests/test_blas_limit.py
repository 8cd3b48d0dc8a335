"""The driver's BLAS threads beside a parallel run.

While a run's TTMc dispatcher has width ``w > 1`` — a thread team, or a
crew that pays — every loaded OpenBLAS library runs at most
``max(1, usable CPUs − w)`` threads, from ``PlanBackend.prepare`` until
``finalize`` (:func:`repro.parallel.blas.limit_beside`).  The counts come
back on every exit path, and overlapping runs restore them only when the
last one ends.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import decompose
from repro.data import random_sparse_tensor
from repro.engine import backend
from repro.parallel import blas
from repro.parallel.shm import SHM_PREFIX
from repro.resilience.faults import (
    FAULT_ENV,
    FaultPlan,
    FaultSpec,
    clear_faults,
    install_faults,
)

pytestmark = pytest.mark.skipif(
    not blas.can_set_threads(), reason="no OpenBLAS thread setter is loaded"
)

#: The crew's real break-even, read before ``every_job_on_the_crew`` pins it.
REAL_BREAK_EVEN_FLOPS = backend.CREW_BREAK_EVEN_FLOPS

RANK = 4
OPTIONS = dict(max_iterations=3, seed=0, trsvd_method="lanczos")
PARALLEL = {
    "thread": dict(execution="thread", num_workers=2),
    "process": dict(execution="process", num_workers=2),
}


@pytest.fixture
def tensor():
    return random_sparse_tensor((40, 30, 20), 1500, seed=5)


def _run(tensor, execution="sequential", num_workers=1, **kwargs):
    return decompose(
        tensor, RANK, execution=execution, num_workers=num_workers,
        **OPTIONS, **kwargs,
    )


def _counts_per_sweep(tensor, **kwargs):
    seen = []
    result = _run(tensor, callback=lambda it, fit: seen.append(blas.thread_counts()),
                  **kwargs)
    return seen, result


def _record_setter_calls(monkeypatch) -> list:
    """Route every library's setter through a recorder."""
    calls = []
    libraries = blas._libraries()

    def recorded(setter):
        def call(count):
            calls.append(count)
            setter(count)
        return call

    wrapped = tuple((recorded(setter), getter) for setter, getter in libraries)
    monkeypatch.setattr(blas, "_libraries", lambda: wrapped)
    return calls


@pytest.mark.usefixtures("every_job_on_the_crew")
@pytest.mark.parametrize("execution", sorted(PARALLEL))
def test_parallel_run_holds_the_limit_until_it_ends(tensor, execution):
    before = blas.thread_counts()
    reference = _run(tensor)
    seen, result = _counts_per_sweep(tensor, **PARALLEL[execution])
    cap = blas.threads_beside(2)
    assert seen == [[min(c, cap) for c in before]] * OPTIONS["max_iterations"]
    assert blas.thread_counts() == before
    np.testing.assert_allclose(
        result.fit_history, reference.fit_history, rtol=0, atol=1e-10
    )


def test_sequential_and_small_process_runs_leave_the_counts_alone(
    tensor, monkeypatch
):
    monkeypatch.setattr(backend, "CREW_BREAK_EVEN_FLOPS", REAL_BREAK_EVEN_FLOPS)
    calls = _record_setter_calls(monkeypatch)
    _run(tensor)
    _run(tensor, **PARALLEL["process"])  # below the break-even: inline
    assert calls == []


@pytest.mark.usefixtures("every_job_on_the_crew")
def test_counts_come_back_after_a_failed_prepare(tensor, monkeypatch):
    before = blas.thread_counts()
    plan = FaultPlan([FaultSpec("shm.attach", action="error", times=-1)])
    # Fork workers inherit the armed injector, spawn workers read the env.
    install_faults(plan)
    monkeypatch.setenv(FAULT_ENV, plan.to_json())
    try:
        with pytest.raises(RuntimeError, match="failed to attach shared memory"):
            _run(tensor, **PARALLEL["process"])
    finally:
        clear_faults()
        monkeypatch.delenv(FAULT_ENV)
    assert blas.thread_counts() == before
    assert not [
        name for name in os.listdir("/dev/shm") if name.startswith(f"{SHM_PREFIX}-")
    ]
    # The broken crew was given back: the next run replaces it and completes.
    assert _run(tensor, **PARALLEL["process"]).completed_sweeps == 3


@pytest.mark.parametrize("execution", sorted(PARALLEL))
@pytest.mark.usefixtures("every_job_on_the_crew")
def test_counts_come_back_after_a_cancelled_run(tensor, execution):
    before = blas.thread_counts()
    checks = []

    def cancel():
        checks.append(blas.thread_counts())
        if len(checks) == 3:
            raise KeyboardInterrupt("cancelled mid-sweep")

    with pytest.raises(KeyboardInterrupt):
        _run(tensor, cancel_check=cancel, **PARALLEL[execution])
    cap = blas.threads_beside(2)
    assert checks == [[min(c, cap) for c in before]] * 3
    assert blas.thread_counts() == before


def test_overlapping_runs_restore_the_original_counts(tensor):
    before = blas.thread_counts()
    both_running = threading.Barrier(2, timeout=60)
    seen, errors = [], []

    def run():
        def meet(iteration, fit):
            if iteration == 0:
                both_running.wait()
                seen.append(blas.thread_counts())
                both_running.wait()  # neither ends before both have looked

        try:
            _run(tensor, callback=meet, **PARALLEL["thread"])
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)
            both_running.abort()

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    cap = blas.threads_beside(2)
    assert seen == [[min(c, cap) for c in before]] * 2
    assert blas.thread_counts() == before


def test_threads_beside_leaves_the_workers_their_cores(tensor, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert blas.usable_cpus() == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert blas.usable_cpus() == 8
    assert [blas.threads_beside(w) for w in (1, 2, 7, 8, 9)] == [7, 6, 1, 1, 1]

    before = blas.thread_counts()
    for cpus in (3, 4, 5):
        monkeypatch.setattr(blas, "usable_cpus", lambda cpus=cpus: cpus)
        seen, _ = _counts_per_sweep(tensor, **PARALLEL["thread"])
        assert seen[0] == [min(c, max(1, cpus - 2)) for c in before]
        assert blas.thread_counts() == before
