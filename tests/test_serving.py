"""The decomposition service: jobs, cache, crew reuse, failure handling.

Each test drives a real :class:`~repro.serving.DecompositionService` — real
worker crew, real shared-memory arenas — through ``asyncio.run`` (no asyncio
test plugin needed).  The suite covers the serving contract end to end:

* results match the direct drivers to 1e-10 under concurrent submission;
* back-to-back pooled jobs of every plan kind reuse one crew, one pool
  generation each;
* cache accounting is exact and a resubmission recomputes nothing (the
  crew's generation counter does not move on a hit);
* cancellation works both queued and mid-iteration, cooperatively;
* a SIGKILLed worker triggers the bounded crash-retry path on a fresh crew;
* teardown — including after cancels and crashes — leaks no ``/dev/shm``
  segment and no worker process.

Everything but the two crew tests runs on ``num_workers=1`` crews: the
protocol (attach/detach, crash handling) is identical at any width and the
CI box has a single core; the dimension-tree crew test needs two workers to
show a process job never spawns more than the service's crew, and the
crew-reuse test runs its jobs at that width too.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import HOOIOptions, hooi
from repro.parallel.shm import SHM_PREFIX
from repro.serving import (
    AdmissionError,
    DecompositionService,
    JobCancelledError,
    JobState,
    JobTimeoutError,
    ResultCache,
    pooled_eligible,
)

pytestmark = [
    pytest.mark.skipif(os.name != "posix", reason="the worker crew requires POSIX"),
    # These small jobs would run inline under the crew's break-even.
    pytest.mark.usefixtures("every_job_on_the_crew"),
]

GRAM = dict(trsvd_method="gram", max_iterations=3, seed=0)


def _shm_segments():
    base = Path("/dev/shm")
    if not base.exists():
        return set()
    return {
        p.name for p in base.iterdir()
        if p.name.startswith(("psm_", f"{SHM_PREFIX}-"))
    }


def _service(**kwargs):
    kwargs.setdefault("num_workers", 1)
    kwargs.setdefault("warmup", True)
    return DecompositionService(**kwargs)


async def _wait_running(handle, timeout=30.0):
    deadline = time.monotonic() + timeout
    while handle.state is not JobState.RUNNING:
        if time.monotonic() > deadline:  # pragma: no cover - diagnostics
            raise AssertionError(f"job never started: {handle.state}")
        await asyncio.sleep(0.005)


# --------------------------------------------------------------------------- #
# Parity and concurrency
# --------------------------------------------------------------------------- #
class TestParity:
    def test_concurrent_submissions_match_direct_driver(
        self, small_tensor_3d, small_tensor_4d, medium_tensor_3d
    ):
        requests = [
            (small_tensor_3d, 4, "process"),
            (small_tensor_4d, 3, "process"),
            (medium_tensor_3d, 4, "sequential"),
            (small_tensor_3d, 3, "thread"),
        ]

        async def main():
            async with _service() as service:
                handles = await asyncio.gather(
                    *[
                        service.submit(t, rank, execution=execution, **GRAM)
                        for t, rank, execution in requests
                    ]
                )
                return await asyncio.gather(
                    *[h.result() for h in handles]
                )

        results = asyncio.run(main())
        for (tensor, rank, execution), served in zip(requests, results):
            direct = hooi(
                tensor,
                rank,
                HOOIOptions(execution="sequential", **GRAM),
            )
            np.testing.assert_allclose(
                served.decomposition.core,
                direct.decomposition.core,
                atol=1e-10,
            )


class TestCrewReuse:
    def test_coo_csf_dimtree_jobs_reuse_one_crew(
        self, small_tensor_3d, small_tensor_4d, medium_tensor_3d
    ):
        """Back-to-back pooled jobs of every plan kind share one crew.

        Each job packs its own one-plan generation onto the service's crew
        (``hooi(..., crew=)``): the worker processes survive every job, the
        crew serves one generation per job, and each result is the
        sequential one.
        """
        jobs = [
            (medium_tensor_3d, (4, 4, 3), dict(tensor_format="coo")),
            (small_tensor_4d, (3, 3, 2, 2), dict(tensor_format="csf")),
            (small_tensor_3d, (3, 3, 2), dict(ttmc_strategy="dimtree")),
        ]
        base = dict(max_iterations=3, init="hosvd", seed=0)
        before = _shm_segments()

        async def main():
            async with _service(num_workers=2) as service:
                crew = service._pool._crew
                pids = [w.pid for w in crew.workers]
                handles = [
                    await service.submit(
                        tensor, ranks, execution="process", **base, **axes
                    )
                    for tensor, ranks, axes in jobs
                ]
                assert all(
                    pooled_eligible(service._jobs[h.job_id]) for h in handles
                )
                results = await asyncio.gather(*[h.result() for h in handles])
                assert service._pool._crew is crew and crew.alive
                assert [w.pid for w in crew.workers] == pids
                # Each job unlinked its arena; only the crew outlives it.
                assert _shm_segments() - before == set()
                return results, service.metrics()

        results, metrics = asyncio.run(main())
        assert metrics["pool"]["generations"] == len(jobs)
        assert metrics["pool"]["resets"] == 0
        for (tensor, ranks, axes), served in zip(jobs, results):
            reference = hooi(tensor, ranks, HOOIOptions(
                execution="sequential", **base, **axes
            ))
            np.testing.assert_allclose(
                served.fit_history, reference.fit_history, atol=1e-10
            )
            for a, b in zip(served.decomposition.factors,
                            reference.decomposition.factors):
                np.testing.assert_allclose(a, b, atol=1e-10)
        assert _shm_segments() - before == set()


# --------------------------------------------------------------------------- #
# Cache behaviour
# --------------------------------------------------------------------------- #
class TestCache:
    def test_resubmission_is_a_hit_with_zero_recomputation(
        self, small_tensor_3d
    ):
        async def main():
            async with _service() as service:
                first = await service.submit(
                    small_tensor_3d, 4, execution="process", **GRAM
                )
                result = await first.result()
                generations = service.metrics()["pool"]["generations"]

                again = await service.submit(
                    small_tensor_3d, 4, execution="process", **GRAM
                )
                hit = await again.result()
                metrics = service.metrics()
                return first, again, result, hit, generations, metrics

        first, again, result, hit, generations, metrics = asyncio.run(main())
        assert not first.cached and again.cached
        assert again.state is JobState.DONE
        assert hit is result  # the very same object: nothing recomputed
        assert metrics["pool"]["generations"] == generations
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1

    def test_equivalent_spellings_share_a_cache_line(self, small_tensor_3d):
        async def main():
            async with _service() as service:
                a = await service.submit(
                    small_tensor_3d,
                    3,
                    options=HOOIOptions(trsvd_method="gram"),
                )
                await a.result()
                # Same meaning, different spelling: dict options, explicit
                # defaults, scalar rank already broadcast.
                b = await service.submit(
                    small_tensor_3d,
                    [3, 3, 3],
                    options={"trsvd_method": "gram", "max_iterations": 5},
                )
                return b.cached

        assert asyncio.run(main())

    def test_different_tensor_content_misses(self, small_tensor_3d):
        perturbed = small_tensor_3d.astype(np.float64)
        values = perturbed.values.copy()
        values[0] += 1.0
        from repro.core import SparseTensor

        perturbed = SparseTensor(
            perturbed.indices.copy(), values, perturbed.shape
        )

        async def main():
            async with _service() as service:
                a = await service.submit(small_tensor_3d, 3, **GRAM)
                await a.result()
                b = await service.submit(perturbed, 3, **GRAM)
                await b.result()
                return b.cached, service.metrics()["cache"]

        cached, cache = asyncio.run(main())
        assert not cached
        assert cache["misses"] == 2 and cache["hits"] == 0

    def test_lru_eviction_accounting(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1
        assert cache.snapshot()["hits"] == 3
        assert cache.snapshot()["misses"] == 1


# --------------------------------------------------------------------------- #
# Cancellation and timeouts
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_cancel_mid_iteration(self, medium_tensor_3d):
        async def main():
            async with _service() as service:
                handle = await service.submit(
                    medium_tensor_3d,
                    4,
                    execution="process",
                    trsvd_method="gram",
                    max_iterations=500,
                    tolerance=0.0,
                )
                await _wait_running(handle)
                # Let it get at least one progress report in.
                deadline = time.monotonic() + 30.0
                while handle.progress is None and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                assert handle.cancel()
                with pytest.raises(JobCancelledError):
                    await handle.result()
                return handle, service.metrics()

        handle, metrics = asyncio.run(main())
        assert handle.state is JobState.CANCELLED
        # It really ran before being cancelled, mid-iteration.
        assert handle.progress is not None
        assert metrics["jobs"]["cancelled"] == 1

    def test_cancel_while_queued_never_runs(self, small_tensor_3d, medium_tensor_3d):
        async def main():
            async with _service() as service:
                blocker = await service.submit(
                    medium_tensor_3d,
                    4,
                    execution="process",
                    trsvd_method="gram",
                    max_iterations=60,
                    tolerance=0.0,
                )
                await _wait_running(blocker)
                queued = await service.submit(
                    small_tensor_3d, 3, execution="process", **GRAM
                )
                assert queued.cancel()
                # The in-flight blocker completes normally; the cancelled
                # queued job is finalized at dispatch without ever running.
                await blocker.result()
                with pytest.raises(JobCancelledError):
                    await queued.result()
                assert queued.progress is None  # never started
                return queued.state

        assert asyncio.run(main()) is JobState.CANCELLED

    def test_cancel_after_done_returns_false(self, small_tensor_3d):
        async def main():
            async with _service() as service:
                handle = await service.submit(small_tensor_3d, 3, **GRAM)
                await handle.result()
                return handle.cancel()

        assert asyncio.run(main()) is False

    def test_timeout_aborts_and_fails_the_job(self, medium_tensor_3d):
        async def main():
            async with _service() as service:
                handle = await service.submit(
                    medium_tensor_3d,
                    4,
                    execution="process",
                    trsvd_method="gram",
                    max_iterations=100_000,
                    tolerance=0.0,
                    timeout=0.3,
                )
                with pytest.raises(JobTimeoutError):
                    await handle.result()
                return handle.state, service.metrics()

        state, metrics = asyncio.run(main())
        assert state is JobState.FAILED
        assert metrics["jobs"]["failed"] == 1


# --------------------------------------------------------------------------- #
# Crash retry
# --------------------------------------------------------------------------- #
class TestCrashRetry:
    def test_midrun_worker_kill_retries_on_fresh_crew(self, medium_tensor_3d):
        async def main():
            async with _service(max_retries=1) as service:
                handle = await service.submit(
                    medium_tensor_3d,
                    4,
                    execution="process",
                    trsvd_method="gram",
                    max_iterations=60,
                    tolerance=0.0,
                )
                await _wait_running(handle)
                await asyncio.sleep(0.05)
                crew = service._pool._crew
                os.kill(crew.workers[0].pid, signal.SIGKILL)
                result = await handle.result()
                return result, service.metrics()

        result, metrics = asyncio.run(main())
        assert result.iterations == 60
        assert metrics["jobs"]["retries"] == 1
        assert metrics["pool"]["resets"] == 1
        assert metrics["jobs"]["done"] == 1

    def test_dead_crew_is_replaced_before_dispatch(self, small_tensor_3d):
        async def main():
            async with _service() as service:
                warm = await service.submit(
                    small_tensor_3d, 3, execution="process", **GRAM
                )
                await warm.result()
                os.kill(service._pool._crew.workers[0].pid, signal.SIGKILL)
                await asyncio.sleep(0.05)
                handle = await service.submit(
                    small_tensor_3d, 4, execution="process", **GRAM
                )
                result = await handle.result()
                return handle.state, result

        state, result = asyncio.run(main())
        # acquire() health-checks the crew: the job never saw the corpse.
        assert state is JobState.DONE
        assert result.iterations == 3

    def test_retries_are_bounded(self, medium_tensor_3d, monkeypatch):
        from repro.parallel.process_pool import WorkerCrashError
        from repro.serving import service as service_module

        calls = []

        def always_crash(job, **kwargs):
            calls.append(job.id)
            return (job, "crash", WorkerCrashError("injected"))

        monkeypatch.setattr(service_module, "run_direct", always_crash)

        async def main():
            async with _service(max_retries=1, warmup=False) as service:
                # fallback="none" opts out of the degradation ladder: this
                # test asserts the loud-failure path stays available.
                handle = await service.submit(
                    medium_tensor_3d, 3, execution="process",
                    fallback="none", **GRAM
                )
                with pytest.raises(WorkerCrashError):
                    await handle.result()
                return handle.state, service.metrics()

        state, metrics = asyncio.run(main())
        assert state is JobState.FAILED
        assert len(calls) == 2  # first attempt + one bounded retry
        assert metrics["jobs"]["retries"] == 1
        assert metrics["fallbacks"] == {}


# --------------------------------------------------------------------------- #
# Admission and lifecycle
# --------------------------------------------------------------------------- #
class TestAdmission:
    def test_queue_bound_raises_admission_error(
        self, small_tensor_3d, medium_tensor_3d
    ):
        async def main():
            async with _service(max_pending=1) as service:
                blocker = await service.submit(
                    medium_tensor_3d,
                    4,
                    execution="process",
                    trsvd_method="gram",
                    max_iterations=60,
                    tolerance=0.0,
                )
                await _wait_running(blocker)
                filler = await service.submit(
                    small_tensor_3d, 3, execution="process", **GRAM
                )
                with pytest.raises(AdmissionError):
                    await service.submit(
                        small_tensor_3d, 4, execution="process", **GRAM
                    )
                blocker.cancel()
                with pytest.raises(JobCancelledError):
                    await blocker.result()
                await filler.result()

        asyncio.run(main())

    def test_invalid_requests_rejected_at_admission(self, small_tensor_3d):
        async def main():
            async with _service(warmup=False) as service:
                # numba × dimtree is the one remaining composition hole.
                with pytest.raises(ValueError, match="dimtree"):
                    await service.submit(
                        small_tensor_3d,
                        3,
                        kernel="numba",
                        ttmc_strategy="dimtree",
                    )
                with pytest.raises(ValueError, match="max_iterations"):
                    await service.submit(small_tensor_3d, 3, max_iter=2)
                return service.metrics()["jobs"]["queued"]

        assert asyncio.run(main()) == 0

    def test_submit_after_close_rejected(self, small_tensor_3d):
        async def main():
            service = _service(warmup=False)
            await service.start()
            await service.aclose()
            with pytest.raises(AdmissionError):
                await service.submit(small_tensor_3d, 3, **GRAM)

        asyncio.run(main())

    def test_infeasible_ranks_rejected_at_submit(self, small_tensor_3d):
        async def main():
            async with _service(warmup=False) as service:
                good, bad = await asyncio.gather(
                    service.submit(small_tensor_3d, 3, execution="process", **GRAM),
                    service.submit(
                        small_tensor_3d, (5, 2, 2), execution="process", **GRAM
                    ),
                    return_exceptions=True,
                )
                result = await good.result()
                return good.state, result, bad, service.metrics()["jobs"]

        state, result, bad, jobs = asyncio.run(main())
        assert isinstance(bad, ValueError)
        assert "product of the other modes' ranks" in str(bad)
        assert state is JobState.DONE and result.completed_sweeps == 3
        assert jobs["failed"] == 0

    def test_process_dimtree_job_runs_on_the_crew(self, small_tensor_3d):
        options = dict(ttmc_strategy="dimtree", max_iterations=3, seed=0)

        async def main():
            # Warm: the crew is already up, so a second pool would show.
            async with _service(num_workers=2) as service:
                before = service.metrics()["pool"]["generations"]
                handle = await service.submit(
                    small_tensor_3d, 3, execution="process", num_workers=2,
                    **options,
                )
                assert pooled_eligible(service._jobs[handle.job_id])
                children = 0
                while not handle.done():
                    children = max(children, len(multiprocessing.active_children()))
                    await asyncio.sleep(0.001)
                result = await handle.result()
                return result, before, service.metrics(), children

        result, before, metrics, children = asyncio.run(main())
        assert metrics["pool"]["generations"] == before + 1
        assert children <= 2
        reference = hooi(small_tensor_3d, 3, HOOIOptions(**options))
        np.testing.assert_allclose(
            result.fit_history, reference.fit_history, atol=1e-10
        )


# --------------------------------------------------------------------------- #
# Teardown hygiene
# --------------------------------------------------------------------------- #
class TestTeardown:
    def test_no_leaked_segments_or_workers_after_mixed_load(
        self, small_tensor_3d, medium_tensor_3d
    ):
        before = _shm_segments()

        async def main():
            async with _service(max_retries=1) as service:
                ok = await service.submit(
                    small_tensor_3d, 3, execution="process", **GRAM
                )
                await ok.result()
                victim = await service.submit(
                    medium_tensor_3d,
                    4,
                    execution="process",
                    trsvd_method="gram",
                    max_iterations=300,
                    tolerance=0.0,
                )
                await _wait_running(victim)
                await asyncio.sleep(0.05)
                os.kill(service._pool._crew.workers[0].pid, signal.SIGKILL)
                cancelled = await service.submit(
                    small_tensor_3d, 4, execution="process", **GRAM
                )
                cancelled.cancel()
                await victim.result()  # survives via the retry path
                with pytest.raises(JobCancelledError):
                    await cancelled.result()
                return service._pool._crew

        crew = asyncio.run(main())
        # The service exited its context: crew reaped, arenas unlinked.
        assert _shm_segments() - before == set()
        if crew is not None:
            assert all(not w.is_alive() for w in crew.workers)

    def test_drainless_close_cancels_queued_jobs(
        self, small_tensor_3d, medium_tensor_3d
    ):
        before = _shm_segments()

        async def main():
            service = _service()
            await service.start()
            blocker = await service.submit(
                medium_tensor_3d,
                4,
                execution="process",
                trsvd_method="gram",
                max_iterations=30,
                tolerance=0.0,
            )
            await _wait_running(blocker)
            queued = await service.submit(
                small_tensor_3d, 3, execution="process", **GRAM
            )
            await service.aclose(drain=False)
            assert blocker.state is JobState.DONE  # in-flight runs complete
            with pytest.raises(JobCancelledError):
                await queued.result()
            return queued.state

        assert asyncio.run(main()) is JobState.CANCELLED
        assert _shm_segments() - before == set()


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_snapshot_shape_and_latency_percentiles(self, small_tensor_3d):
        async def main():
            async with _service() as service:
                for rank in (2, 3, 4):
                    handle = await service.submit(
                        small_tensor_3d, rank, execution="process", **GRAM
                    )
                    await handle.result()
                return service.metrics()

        metrics = asyncio.run(main())
        assert metrics["jobs"]["done"] == 3
        latency = metrics["latency_seconds"]
        assert latency["count"] == 3
        assert 0 < latency["p50"] <= latency["p95"]
        assert metrics["jobs_per_second"] > 0
        assert metrics["cache"]["misses"] == 3
