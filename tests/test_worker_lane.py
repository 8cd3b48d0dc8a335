"""The service's worker lane: small process jobs run whole on idle crew workers.

A process job below the crew's break-even
(:func:`repro.serving.executor.worker_eligible`) runs as one whole
``hooi()`` call on an idle worker of the service's live crew, up to
``num_workers`` at once; everything else runs alone once no worker job is
in flight.  These tests keep the real break-even (no
``every_job_on_the_crew``), so their small jobs take the lane.
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
from repro.data import random_sparse_tensor
from repro.parallel import blas
from repro.parallel.shm import SHM_PREFIX
from repro.serving import (
    DecompositionService,
    JobCancelledError,
    JobState,
    JobTimeoutError,
)
from repro.streaming import DeltaBatch, apply_delta
from repro.streaming.warmstart import conform_factors

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="the worker crew requires POSIX"
)

RANK = 4
GRAM = dict(trsvd_method="gram", seed=0)
#: ~2 ms a sweep on the medium tensor: long enough to act on mid-run.
LONG = dict(GRAM, max_iterations=400, tolerance=0.0)


def _shm_segments():
    base = Path("/dev/shm")
    if not base.exists():
        return set()
    return {
        p.name for p in base.iterdir()
        if p.name.startswith(("psm_", f"{SHM_PREFIX}-"))
    }


async def _result(handle, timeout=60.0):
    """The job's result, or a test failure instead of a hang."""
    return await asyncio.wait_for(handle.result(), timeout)


def _worker_of(service, handle):
    return service._jobs[handle.job_id].worker


async def _wait_progress(handle, sweeps=1, timeout=30.0):
    """Wait until the job has reported ``sweeps`` sweeps of progress."""
    deadline = time.monotonic() + timeout
    while handle.progress is None or handle.progress[0] + 1 < sweeps:
        if time.monotonic() > deadline:  # pragma: no cover - diagnostics
            raise AssertionError(f"no progress: {handle.state}")
        await asyncio.sleep(0.002)


def _kill_worker(service, handle):
    crew = service._pool._crew
    os.kill(crew.workers[_worker_of(service, handle)].pid, signal.SIGKILL)


def _sequential(tensor, **options):
    return hooi(tensor, RANK, HOOIOptions(execution="sequential", **options))


def _blas_thread_counts(payload, worker):
    """A whole job that reports its worker's OpenBLAS thread counts."""
    return blas.thread_counts()


class TestLane:
    def test_short_job_overtakes_a_long_one(
        self, small_tensor_3d, medium_tensor_3d
    ):
        async def main():
            async with DecompositionService(num_workers=2) as service:
                long = await service.submit(
                    medium_tensor_3d, RANK, execution="process", **LONG
                )
                await _wait_progress(long)
                short = await service.submit(
                    small_tensor_3d, RANK, execution="process",
                    max_iterations=2, **GRAM,
                )
                await _result(short)
                overtaken = not long.done()
                running = service.metrics()["jobs"]["running"]
                await _result(long)
                workers = {_worker_of(service, h) for h in (long, short)}
                return overtaken, running, workers, service.metrics()

        overtaken, running, workers, metrics = asyncio.run(main())
        assert overtaken
        assert running == 1  # the long job, still on its worker
        assert workers == {0, 1}
        assert metrics["pool"]["generations"] == 0
        assert metrics["jobs"]["done"] == 2

    def test_fresh_and_delta_jobs_equal_sequential_runs(self, medium_tensor_3d):
        rng = np.random.default_rng(3)
        shape = medium_tensor_3d.shape
        batch = DeltaBatch(
            np.column_stack([rng.integers(0, s, 40) for s in shape]),
            rng.standard_normal(40),
        )
        options = dict(GRAM, max_iterations=4)

        async def main():
            async with DecompositionService(num_workers=2) as service:
                fresh = await service.submit(
                    medium_tensor_3d, RANK, execution="process", **options
                )
                base = await _result(fresh)
                delta = await service.submit_delta(fresh, batch)
                grown = await _result(delta)
                workers = [_worker_of(service, h) for h in (fresh, delta)]
                return base, grown, workers, service.metrics()

        base, grown, workers, metrics = asyncio.run(main())
        assert None not in workers
        assert metrics["jobs"]["warm_started"] == 1
        reference = _sequential(medium_tensor_3d, **options)
        warm = conform_factors(
            reference.decomposition.factors, shape, (RANK,) * 3
        )
        delta_reference = _sequential(
            apply_delta(medium_tensor_3d, batch), init=warm, **options
        )
        for ours, ref in ((base, reference), (grown, delta_reference)):
            assert ours.fit_history == ref.fit_history
            for a, b in zip(ours.decomposition.factors, ref.decomposition.factors):
                assert np.array_equal(a, b)
            assert np.array_equal(ours.decomposition.core, ref.decomposition.core)

    def test_more_workers_than_cores_run_every_job_exactly(self):
        """Three workers on fewer cores: every job completes, each exact."""
        tensors = [
            random_sparse_tensor((20, 15, 12), 300, seed=40 + i)
            for i in range(24)
        ]
        options = dict(GRAM, max_iterations=3)

        async def main():
            async with DecompositionService(
                num_workers=3, cache_capacity=0
            ) as service:
                handles = [
                    await service.submit(
                        tensor, RANK, execution="process", **options
                    )
                    for tensor in tensors
                ]
                busiest = 0
                while not all(h.done() for h in handles):
                    busiest = max(busiest, service.metrics()["jobs"]["running"])
                    await asyncio.sleep(0.001)
                results = [await _result(h) for h in handles]
                workers = {_worker_of(service, h) for h in handles}
                return results, busiest, workers, service.metrics()

        results, busiest, workers, metrics = asyncio.run(main())
        assert 1 <= busiest <= 3
        assert workers <= {0, 1, 2}
        assert metrics["jobs"]["done"] == len(tensors)
        assert metrics["pool"]["generations"] == 0
        for tensor, result in zip(tensors, results):
            assert result.fit_history == _sequential(tensor, **options).fit_history

    def test_progress_is_relayed(self, small_tensor_3d):
        async def main():
            async with DecompositionService(num_workers=1) as service:
                handle = await service.submit(
                    small_tensor_3d, RANK, execution="process",
                    max_iterations=3, **GRAM,
                )
                result = await _result(handle)
                return handle.progress, result, _worker_of(service, handle)

        progress, result, worker = asyncio.run(main())
        assert worker == 0
        assert progress == (result.iterations - 1, result.fit)


class TestCancelAndTimeout:
    def test_cancelled_worker_job_frees_its_worker(
        self, small_tensor_3d, medium_tensor_3d
    ):
        async def main():
            async with DecompositionService(num_workers=1) as service:
                handle = await service.submit(
                    medium_tensor_3d, RANK, execution="process", **LONG
                )
                await _wait_progress(handle)
                assert handle.cancel()
                with pytest.raises(JobCancelledError, match="was cancelled"):
                    await _result(handle)
                after = await service.submit(
                    small_tensor_3d, RANK, execution="process",
                    max_iterations=2, **GRAM,
                )
                await _result(after)
                return (
                    handle, after, _worker_of(service, handle),
                    _worker_of(service, after), service.metrics(),
                )

        handle, after, cancelled_on, next_on, metrics = asyncio.run(main())
        assert handle.state is JobState.CANCELLED
        assert handle.progress[0] + 1 < LONG["max_iterations"]
        assert after.state is JobState.DONE
        assert cancelled_on == next_on == 0
        assert metrics["jobs"]["cancelled"] == 1
        assert metrics["pool"]["resets"] == 0

    def test_timeout_message_matches_the_inline_path(self, medium_tensor_3d):
        async def main(warmup):
            # Without warmup the service has no crew: the job runs inline.
            async with DecompositionService(
                num_workers=1, warmup=warmup
            ) as service:
                handle = await service.submit(
                    medium_tensor_3d, RANK, execution="process",
                    timeout=0.2, **LONG,
                )
                with pytest.raises(JobTimeoutError) as info:
                    await _result(handle)
                return str(info.value), _worker_of(service, handle), handle.state

        on_worker = asyncio.run(main(True))
        inline = asyncio.run(main(False))
        assert on_worker[1] == 0 and inline[1] is None
        assert on_worker[0] == inline[0] == "job job-1 exceeded its 0.2s timeout"
        assert on_worker[2] is inline[2] is JobState.FAILED


class TestWorkerCrash:
    def test_killed_worker_retries_its_job_and_spares_the_other(
        self, medium_tensor_3d
    ):
        before = _shm_segments()

        async def main():
            async with DecompositionService(
                num_workers=2, max_retries=1
            ) as service:
                victim = await service.submit(
                    medium_tensor_3d, RANK, execution="process", **LONG
                )
                other = await service.submit(
                    medium_tensor_3d, RANK, execution="process",
                    **dict(LONG, max_iterations=300),
                )
                await _wait_progress(victim)
                await _wait_progress(other)
                _kill_worker(service, victim)
                killed = (await _result(victim)).fit_history
                spared = (await _result(other)).iterations
                attempts = [service._jobs[h.job_id].attempts for h in (victim, other)]
                return killed, spared, attempts, service.metrics()

        # Only small values leave main(): asyncio.run formats its main
        # task's result on the way out, which takes seconds for a 400-sweep
        # result.
        killed, spared, attempts, metrics = asyncio.run(main())
        assert attempts == [2, 1]
        assert metrics["jobs"]["retries"] == 1
        assert metrics["jobs"]["done"] == 2
        assert metrics["pool"]["resets"] == 1
        assert killed == _sequential(medium_tensor_3d, **LONG).fit_history
        assert spared == 300
        assert _shm_segments() <= before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("warmup", [True, False])
    def test_later_small_job_runs_on_a_worker_after_the_reset(
        self, medium_tensor_3d, small_tensor_3d, warmup
    ):
        """A warmed-up service rebuilds its crew at the crash reset.

        Small jobs then keep the worker lane; a lazy service (``warmup=False``)
        builds no crew for them, so they run inline until a pooled job does.
        """
        options = dict(GRAM, max_iterations=3)

        async def main():
            async with DecompositionService(
                num_workers=2, max_retries=1, warmup=warmup
            ) as service:
                if not warmup:  # build the crew the worker lane needs
                    service._pool.acquire()
                victim = await service.submit(
                    medium_tensor_3d, RANK, execution="process", **LONG
                )
                await _wait_progress(victim)
                _kill_worker(service, victim)
                await _result(victim)
                later = await service.submit(
                    small_tensor_3d, RANK, execution="process", **options
                )
                result = await _result(later)
                return _worker_of(service, later), result.fit_history, service.metrics()

        before = _shm_segments()
        worker, fit_history, metrics = asyncio.run(main())
        assert (worker is not None) is warmup
        assert metrics["pool"]["resets"] == 1
        assert metrics["jobs"]["retries"] == 1
        assert fit_history == _sequential(small_tensor_3d, **options).fit_history
        assert _shm_segments() <= before
        assert multiprocessing.active_children() == []

    def test_checkpointed_job_resumes_after_its_worker_dies(
        self, medium_tensor_3d, tmp_path
    ):
        async def main():
            async with DecompositionService(
                num_workers=1, max_retries=1, checkpoint_dir=tmp_path
            ) as service:
                handle = await service.submit(
                    medium_tensor_3d, RANK, execution="process", **LONG
                )
                await _wait_progress(handle, sweeps=3)
                _kill_worker(service, handle)
                result = await _result(handle)
                return result.fit_history, result.resumed_sweeps, service.metrics()

        fit_history, resumed, metrics = asyncio.run(main())
        assert metrics["jobs"]["retries"] == 1
        assert metrics["jobs"]["resumed_sweeps"] == resumed >= 2
        reference = _sequential(medium_tensor_3d, **LONG)
        np.testing.assert_allclose(
            fit_history, reference.fit_history, rtol=0, atol=1e-12
        )
        assert list(tmp_path.iterdir()) == []  # the rolling file is discarded


@pytest.mark.skipif(not blas.thread_counts(), reason="no OpenBLAS is loaded")
def test_worker_runs_one_blas_thread_after_its_first_job(small_tensor_3d):
    service_threads = blas.thread_counts()

    async def main():
        async with DecompositionService(num_workers=1) as service:
            handle = await service.submit(
                small_tensor_3d, RANK, execution="process",
                max_iterations=2, **GRAM,
            )
            await _result(handle)
            crew = service._pool.live_crew()
            counts = await asyncio.get_running_loop().run_in_executor(
                None, crew.run_job, 0, _blas_thread_counts, None
            )
            return _worker_of(service, handle), counts

    worker, counts = asyncio.run(main())
    assert worker == 0
    assert counts == [1] * len(service_threads)
    assert blas.thread_counts() == service_threads  # the service keeps its own
