"""The crew's break-even: small process jobs run inline, larger ones on workers.

One rule, :func:`repro.engine.backend.crew_pays`, compares a job's per-sweep
TTMc work (Σ_n ``ttmc_flops`` over its nonzeros and ranks) with
:data:`~repro.engine.backend.CREW_BREAK_EVEN_FLOPS`.  Below it,
``decompose(execution="process")`` spawns no worker, packs no arena and
returns exactly the sequential result, and the service runs the job whole
on one idle worker of its live crew (inline when it has none); at or above
it, both run a pool generation over the crew.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro import decompose
from repro.core import HOOIOptions, hooi
from repro.core.ttmc import ttmc_flops
from repro.engine import HOOIEngine, resolve_ttmc_backend
from repro.engine import backend as backend_module
from repro.engine.backend import crew_pays
from repro.parallel import ShmArena
from repro.parallel.process_pool import PersistentWorkerCrew
from repro.serving import DecompositionService, pooled_eligible
from repro.streaming import DeltaBatch

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="the worker crew requires POSIX"
)

RANK = 3
OPTIONS = dict(max_iterations=3, init="random", seed=0, trsvd_method="gram")


def _work(tensor, rank=RANK) -> int:
    ranks = [rank] * tensor.order
    return sum(ttmc_flops(tensor.nnz, ranks, n) for n in range(tensor.order))


def _forbid_crew(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a job below the break-even must not use the crew")

    monkeypatch.setattr(ShmArena, "create", forbidden)
    monkeypatch.setattr(PersistentWorkerCrew, "__init__", forbidden)


def _count_crews(monkeypatch) -> list:
    spawned = []
    original = PersistentWorkerCrew.__init__

    def counting(self, *args, **kwargs):
        spawned.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PersistentWorkerCrew, "__init__", counting)
    return spawned


class TestDecompose:
    @pytest.mark.parametrize("fmt", ["coo", "csf"])
    @pytest.mark.parametrize("strategy", ["per-mode", "dimtree"])
    def test_small_process_run_is_the_sequential_run(
        self, small_tensor_3d, monkeypatch, strategy, fmt
    ):
        assert not crew_pays(small_tensor_3d.nnz, [RANK] * 3)
        options = dict(OPTIONS, ttmc_strategy=strategy, tensor_format=fmt)
        sequential = decompose(small_tensor_3d, RANK, **options)
        _forbid_crew(monkeypatch)
        process = decompose(
            small_tensor_3d, RANK, execution="process", num_workers=2, **options
        )
        assert process.fit_history == sequential.fit_history
        for ours, ref in zip(
            process.decomposition.factors, sequential.decomposition.factors
        ):
            assert np.array_equal(ours, ref)

        process_options = HOOIOptions(
            execution="process", num_workers=2, **options
        )
        backend = resolve_ttmc_backend(process_options)
        HOOIEngine(small_tensor_3d, RANK, process_options, backend=backend).run()
        assert backend.name.endswith("/inline")
        assert backend.pool is None

    def test_threshold_is_inclusive(self, small_tensor_3d, monkeypatch):
        work = _work(small_tensor_3d)
        options = HOOIOptions(execution="process", num_workers=2, **OPTIONS)
        reference = hooi(small_tensor_3d, RANK, HOOIOptions(**OPTIONS))
        spawned = _count_crews(monkeypatch)

        monkeypatch.setattr(backend_module, "CREW_BREAK_EVEN_FLOPS", work + 1)
        below = resolve_ttmc_backend(options)
        HOOIEngine(small_tensor_3d, RANK, options, backend=below).run()
        assert below.name.endswith("/inline")
        assert spawned == []

        monkeypatch.setattr(backend_module, "CREW_BREAK_EVEN_FLOPS", work)
        at = resolve_ttmc_backend(options)
        result = HOOIEngine(small_tensor_3d, RANK, options, backend=at).run()
        assert at.name.endswith("/process")
        assert len(spawned) == 1
        np.testing.assert_allclose(
            result.fit_history, reference.fit_history, atol=1e-10
        )

    def test_work_is_the_per_sweep_ttmc_flops(self, monkeypatch):
        # 6,000 nonzeros at ranks (6, 6, 6): 3 modes × 6,000 × (6 + 36 + 72).
        monkeypatch.setattr(backend_module, "CREW_BREAK_EVEN_FLOPS", 2_052_000)
        assert crew_pays(6_000, (6, 6, 6))
        assert not crew_pays(5_999, (6, 6, 6))


def _served(tensor, *, warmup, submit_delta=False):
    """Run one process job (and optionally a delta on it) through a service."""

    async def main():
        async with DecompositionService(num_workers=2, warmup=warmup) as service:
            handle = await service.submit(
                tensor, RANK, execution="process", **OPTIONS
            )
            jobs = [service._jobs[handle.job_id]]
            results = [await handle.result()]
            if submit_delta:
                rng = np.random.default_rng(3)
                batch = DeltaBatch(
                    np.column_stack([rng.integers(0, s, 20) for s in tensor.shape]),
                    rng.standard_normal(20),
                )
                delta = await service.submit_delta(handle, batch)
                jobs.append(service._jobs[delta.job_id])
                results.append(await delta.result())
            eligible = [pooled_eligible(job) for job in jobs]
            workers = [job.worker for job in jobs]
            return results, eligible, workers, service.metrics()

    return asyncio.run(main())


class TestService:
    def test_small_process_job_runs_on_a_worker(self, small_tensor_3d):
        (result,), eligible, workers, metrics = _served(
            small_tensor_3d, warmup=True
        )
        assert eligible == [False]
        assert workers == [0]  # whole, on the warm crew's first worker
        assert metrics["pool"]["generations"] == 0
        assert metrics["jobs"]["done"] == 1
        reference = hooi(small_tensor_3d, RANK, HOOIOptions(**OPTIONS))
        assert result.fit_history == reference.fit_history

    def test_small_jobs_never_spawn_a_lazy_crew(self, small_tensor_3d, monkeypatch):
        _forbid_crew(monkeypatch)
        results, eligible, workers, metrics = _served(
            small_tensor_3d, warmup=False, submit_delta=True
        )
        assert eligible == [False, False]
        assert workers == [None, None]  # inline: there is no crew to use
        assert metrics["jobs"]["done"] == 2
        assert metrics["jobs"]["warm_started"] == 1
        assert metrics["pool"]["generations"] == 0

    def test_job_above_break_even_is_pooled(self, small_tensor_3d, monkeypatch):
        monkeypatch.setattr(
            backend_module, "CREW_BREAK_EVEN_FLOPS", _work(small_tensor_3d) - 1
        )
        (result,), eligible, workers, metrics = _served(
            small_tensor_3d, warmup=True
        )
        assert eligible == [True]
        assert workers == [None]  # a generation over every worker
        assert metrics["pool"]["generations"] == 1
        reference = hooi(small_tensor_3d, RANK, HOOIOptions(**OPTIONS))
        np.testing.assert_allclose(
            result.fit_history, reference.fit_history, atol=1e-10
        )
