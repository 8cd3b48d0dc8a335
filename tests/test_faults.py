"""Chaos suite: scripted faults exercised end to end (``-m chaos``).

Every scenario here is *data-driven*: a seeded :class:`FaultPlan` names an
injection point compiled into the production code, and the test asserts the
system's reaction — a loud error, a bounded retry, a breaker trip plus
ladder descent — with no bespoke monkeypatching of internals.  Determinism
is the point: a failing scenario replays identically.

The whole module is marked ``chaos`` so the default tier-1 run stays fast;
CI's "Resilience chaos sweep" step runs it twice, under
``REPRO_PROCESS_START_METHOD=fork`` and ``=spawn`` — faults reach fork
workers by inheriting the armed injector and spawn workers through the
``REPRO_FAULTS`` environment variable, so worker-reaching tests set both.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.hooi import HOOIOptions, hooi
from repro.core.sparse_tensor import SparseTensor
from repro.engine import backend
from repro.resilience.faults import (
    FAULT_ENV,
    INJECTION_POINTS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_injector,
    clear_faults,
    install_faults,
    maybe_fail,
)

#: The crew's real break-even, read before ``every_job_on_the_crew`` pins it.
REAL_BREAK_EVEN_FLOPS = backend.CREW_BREAK_EVEN_FLOPS

pytestmark = [
    pytest.mark.chaos,
    # The worker faults need crew jobs; these tensors are below its break-even.
    pytest.mark.usefixtures("every_job_on_the_crew"),
]

GRAM = dict(trsvd_method="gram", seed=0)
needs_posix = pytest.mark.skipif(
    os.name != "posix", reason="worker pools need POSIX shared memory"
)


@pytest.fixture(autouse=True)
def _disarm(monkeypatch):
    """No fault plan may outlive its test (in-process or via env)."""
    monkeypatch.delenv(FAULT_ENV, raising=False)
    yield
    clear_faults()


def _tensor(shape=(20, 15, 12), nnz=300, seed=7) -> SparseTensor:
    rng = np.random.default_rng(seed)
    idx = np.unique(
        np.stack([rng.integers(0, s, nnz) for s in shape], axis=1), axis=0
    )
    return SparseTensor(idx, rng.standard_normal(len(idx)), shape)


def _shm_segments():
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("psm_") or name.startswith("rpshm-")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# --------------------------------------------------------------------------- #
# Plan validation and serialization
# --------------------------------------------------------------------------- #
class TestFaultSpec:
    def test_unknown_point_is_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec("shm.atach")  # typo'd points must not silently no-op

    def test_unknown_action_and_error(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec("trsvd", action="explode")
        with pytest.raises(ValueError, match="unknown error class"):
            FaultSpec("trsvd", error="KeyboardInterrupt")

    def test_counting_knobs(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec("trsvd", times=0)
        with pytest.raises(ValueError, match="after"):
            FaultSpec("trsvd", after=-1)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("trsvd", probability=0.0)
        FaultSpec("trsvd", times=-1)  # unlimited is valid

    def test_every_compiled_point_is_plannable(self):
        for point in INJECTION_POINTS:
            FaultSpec(point)


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            [
                FaultSpec("worker.ack", action="exit", after=2),
                FaultSpec("trsvd", times=3, probability=0.5, message="boom"),
            ],
            seed=42,
        )
        back = FaultPlan.from_json(plan.to_json())
        assert back == plan

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec key"):
            FaultPlan.from_json(
                '{"faults": [{"point": "trsvd", "severity": "high"}]}'
            )

    def test_malformed_payload_is_rejected(self):
        with pytest.raises(ValueError, match="faults"):
            FaultPlan.from_json('["not", "a", "plan"]')


# --------------------------------------------------------------------------- #
# Deterministic firing
# --------------------------------------------------------------------------- #
class TestFiring:
    def test_after_and_times_window(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec("trsvd", after=2, times=2)])
        )
        outcomes = []
        for _ in range(6):
            try:
                inj.fire("trsvd")
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("boom")
        # Hits 1-2 pass (after), 3-4 fire (times), 5-6 pass (exhausted).
        assert outcomes == ["ok", "ok", "boom", "boom", "ok", "ok"]
        assert inj.counters()["trsvd"] == (6, 2)

    def test_probability_is_seeded_and_replayable(self):
        plan = FaultPlan(
            [FaultSpec("trsvd", times=-1, probability=0.5)], seed=7
        )

        def pattern():
            inj = FaultInjector(plan)
            out = []
            for _ in range(40):
                try:
                    inj.fire("trsvd")
                    out.append(0)
                except InjectedFault:
                    out.append(1)
            return out

        first, second = pattern(), pattern()
        assert first == second  # same plan, same decisions — always
        assert 0 < sum(first) < 40

    def test_delay_action_stalls_then_continues(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec("trsvd", action="delay", delay=0.05)])
        )
        start = time.monotonic()
        inj.fire("trsvd")  # stalls, does not raise
        assert time.monotonic() - start >= 0.05
        inj.fire("trsvd")  # fired out; instant no-op

    def test_unplanned_points_never_fire(self):
        inj = install_faults(FaultPlan([FaultSpec("worker.ack")]))
        maybe_fail("trsvd")
        maybe_fail("shm.attach")
        assert inj.counters() == {"worker.ack": (0, 0)}

    def test_disarmed_is_a_noop(self):
        clear_faults()
        assert active_injector() is None
        maybe_fail("trsvd")  # must be free and silent


# --------------------------------------------------------------------------- #
# Environment activation (the spawn-worker route)
# --------------------------------------------------------------------------- #
class TestEnvActivation:
    def _probe(self, env_value):
        env = dict(os.environ, PYTHONPATH="src", **{FAULT_ENV: env_value})
        return subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.resilience.faults import active_injector;"
                "import sys; sys.exit(0 if active_injector() else 3)",
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
            text=True,
        )

    def test_plan_arms_at_import(self):
        plan = FaultPlan([FaultSpec("trsvd")])
        assert self._probe(plan.to_json()).returncode == 0

    def test_malformed_plan_fails_loudly(self):
        # A chaos run whose faults silently never armed would read as
        # "everything survived" — import must abort instead.
        probe = self._probe("{not json")
        assert probe.returncode != 0
        assert "Error" in probe.stderr


# --------------------------------------------------------------------------- #
# Faults wired through the engine paths
# --------------------------------------------------------------------------- #
class TestEnginePoints:
    def test_trsvd_fault_surfaces_from_hooi(self):
        install_faults(FaultPlan([FaultSpec("trsvd")]))
        with pytest.raises(InjectedFault, match="point='trsvd'"):
            hooi(_tensor(), 4, HOOIOptions(max_iterations=2, **GRAM))
        # The run after the fault is exhausted completes normally.
        res = hooi(_tensor(), 4, HOOIOptions(max_iterations=2, **GRAM))
        assert res.completed_sweeps == 2

    @needs_posix
    def test_shm_attach_fault(self):
        from multiprocessing import shared_memory

        from repro.parallel.shm import attach_segment

        seg = shared_memory.SharedMemory(create=True, size=64)
        try:
            install_faults(FaultPlan([FaultSpec("shm.attach")]))
            with pytest.raises(InjectedFault):
                attach_segment(seg.name)
            clear_faults()
            attached = attach_segment(seg.name)
            attached.close()
        finally:
            seg.close()
            seg.unlink()


# --------------------------------------------------------------------------- #
# Worker-process faults (fork and spawn; CI sweeps both start methods)
# --------------------------------------------------------------------------- #
@needs_posix
class TestWorkerFaults:
    def test_worker_ack_exit_is_a_worker_crash(self, monkeypatch):
        """``action="exit"`` mid-task is the scripted SIGKILL equivalent."""
        from repro.parallel.process_pool import WorkerCrashError

        plan = FaultPlan([FaultSpec("worker.ack", action="exit")])
        # Arm both routes: fork workers inherit the injector by memory,
        # spawn workers re-import and read the environment.
        install_faults(plan)
        monkeypatch.setenv(FAULT_ENV, plan.to_json())

        before = _shm_segments()
        with pytest.raises(WorkerCrashError):
            hooi(
                _tensor(),
                4,
                # num_workers=2: a single-worker request degenerates to the
                # sequential backend and would never spawn a worker to kill.
                HOOIOptions(
                    max_iterations=2, execution="process", num_workers=2,
                    **GRAM,
                ),
            )
        assert _shm_segments() <= before  # crash path unlinked its arena

    def test_worker_killed_mid_small_job_retries_inline(self, monkeypatch):
        """A worker that exits mid whole job is a crash; the retry completes.

        The job is below the crew's real break-even, so it runs whole on a
        worker (the worker lane).  The worker exits at its first progress
        report; the service retires the crew, builds a fresh one (it was
        started with ``warmup=True``) and retries the job, which runs
        whole on a worker of the new crew and completes.  Only the crew
        spawned at start carries the fault: the plan is disarmed in the
        service process once that crew is up.
        """
        import multiprocessing

        from repro.serving import DecompositionService, JobState

        monkeypatch.setattr(
            backend, "CREW_BREAK_EVEN_FLOPS", REAL_BREAK_EVEN_FLOPS
        )
        plan = FaultPlan([FaultSpec("worker.job", action="exit")])
        install_faults(plan)
        monkeypatch.setenv(FAULT_ENV, plan.to_json())

        async def main():
            async with DecompositionService(
                num_workers=2, max_retries=1
            ) as service:
                clear_faults()
                monkeypatch.delenv(FAULT_ENV)
                handle = await service.submit(
                    _tensor(), 4, execution="process", max_iterations=3,
                    **GRAM,
                )
                result = await handle.result()
                job = service._jobs[handle.job_id]
                return (
                    result.fit_history, handle.state, job.attempts,
                    job.worker, service.metrics(),
                )

        before = _shm_segments()
        fit_history, state, attempts, worker, metrics = asyncio.run(main())
        assert state is JobState.DONE
        assert attempts == 2 and worker == 0  # the retry ran on the new crew
        assert metrics["jobs"]["retries"] == 1
        assert metrics["pool"]["resets"] == 1
        assert metrics["pool"]["generations"] == 0
        clear_faults()
        reference = hooi(_tensor(), 4, HOOIOptions(max_iterations=3, **GRAM))
        assert fit_history == reference.fit_history
        assert _shm_segments() <= before
        assert multiprocessing.active_children() == []


# --------------------------------------------------------------------------- #
# The acceptance scenario: broken pool → breaker → thread-tier completion
# --------------------------------------------------------------------------- #
@needs_posix
class TestBrokenPoolDegradation:
    def test_breaker_opens_and_thread_tier_completes(self, monkeypatch):
        """Every pool attempt fails → breaker opens → job still succeeds."""
        from repro.serving import DecompositionService, JobState

        # Driver-side dispatch fault: every pooled attempt dies with a
        # WorkerCrashError before any task reaches a worker.  times=-1 makes
        # the pool tier *persistently* broken.
        plan = FaultPlan(
            [
                FaultSpec(
                    "pool.dispatch", error="WorkerCrashError", times=-1,
                    message="scripted broken pool",
                )
            ]
        )
        install_faults(plan)
        monkeypatch.setenv(FAULT_ENV, plan.to_json())

        async def main():
            async with DecompositionService(
                num_workers=1, max_retries=1, breaker_threshold=2,
                warmup=False,
            ) as service:
                with pytest.warns(RuntimeWarning, match="degrading"):
                    handle = await service.submit(
                        _tensor(), 4, execution="process",
                        max_iterations=3, **GRAM,
                    )
                    result = await handle.result()
                return result, handle.state, service.metrics()

        before = _shm_segments()
        result, state, metrics = asyncio.run(main())
        assert state is JobState.DONE
        assert result.completed_sweeps == 3
        assert metrics["fallbacks"]["thread"] == 1
        assert metrics["pool"]["breaker_state"] == "open"
        assert metrics["jobs"]["done"] == 1
        assert metrics["jobs"]["failed"] == 0
        # The thread tier computes what the process tier would have.
        clear_faults()
        full = hooi(_tensor(), 4, HOOIOptions(max_iterations=3, **GRAM))
        for a, b in zip(
            full.decomposition.factors, result.decomposition.factors
        ):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)
        assert _shm_segments() <= before

    def test_serving_run_direct_fault_fails_loudly(self, monkeypatch):
        """Non-crash errors never degrade — they surface as FAILED."""
        from repro.serving import DecompositionService, JobState

        install_faults(
            FaultPlan([FaultSpec("serving.run_direct", error="RuntimeError")])
        )

        async def main():
            async with DecompositionService(
                num_workers=1, warmup=False
            ) as service:
                handle = await service.submit(
                    _tensor(), 4, execution="sequential",
                    max_iterations=2, **GRAM,
                )
                with pytest.raises(RuntimeError, match="injected fault"):
                    await handle.result()
                return handle.state, service.metrics()

        state, metrics = asyncio.run(main())
        assert state is JobState.FAILED
        assert metrics["fallbacks"] == {}


# --------------------------------------------------------------------------- #
# Split TRSVD ranks: a large Lanczos solve on the crew's workers
# --------------------------------------------------------------------------- #
#: Mode 0's block of the ``tall`` tensor is above the split size, so its
#: Lanczos solve runs as one rank per worker.
CREW_LANCZOS = dict(
    max_iterations=3, trsvd_method="lanczos", seed=0, execution="process",
    num_workers=2,
)
#: Every rank exits at its sixth reduction: mid-way through mode 0's solve.
RANK_EXIT = FaultPlan([FaultSpec("worker.trsvd", action="exit", after=5)])


def _sequential_fits(tensor, ranks):
    options = dict(CREW_LANCZOS, execution="sequential", num_workers=1)
    return hooi(tensor, ranks, HOOIOptions(**options)).fit_history


def _arm(plan_json: str, job) -> None:
    """A whole job that arms a fault plan in the one worker running it."""
    install_faults(FaultPlan.from_json(plan_json))


@needs_posix
class TestSplitTRSVDFaults:
    def test_rank_killed_mid_solve_is_a_worker_crash(
        self, tall, tall_ranks, monkeypatch
    ):
        import multiprocessing

        from repro.parallel.process_pool import PROCESS_CREW, WorkerCrashError

        install_faults(RANK_EXIT)
        monkeypatch.setenv(FAULT_ENV, RANK_EXIT.to_json())
        before = _shm_segments()
        with pytest.raises(WorkerCrashError, match="died mid-batch"):
            hooi(tall, tall_ranks, HOOIOptions(**CREW_LANCZOS))
        assert _shm_segments() <= before
        PROCESS_CREW.retire()
        assert multiprocessing.active_children() == []

    def test_surviving_rank_leaves_its_barrier(self, tall, tall_ranks):
        """Only one worker is armed: its peer must leave the barrier it waits in.

        The survivor acks its abort, stops cleanly when the next run
        replaces the broken crew (exit code 0, not a terminate), and the
        next run completes on new workers.
        """
        import multiprocessing

        from repro.parallel.process_pool import PROCESS_CREW, WorkerCrashError

        options = HOOIOptions(**CREW_LANCZOS)
        hooi(tall, tall_ranks, options)  # builds the process's crew
        crew = PROCESS_CREW.current()
        crew.run_job(1, _arm, RANK_EXIT.to_json())
        survivor, victim = crew.workers
        before = _shm_segments()
        with pytest.raises(WorkerCrashError, match="died mid-batch"):
            hooi(tall, tall_ranks, options)
        assert victim.exitcode == RANK_EXIT.specs[0].exit_code
        assert survivor.is_alive()

        result = hooi(tall, tall_ranks, options)
        assert survivor.exitcode == 0
        replaced = PROCESS_CREW.current()
        assert replaced is not crew
        assert {w.pid for w in replaced.workers}.isdisjoint(
            {survivor.pid, victim.pid}
        )
        np.testing.assert_allclose(
            result.fit_history,
            _sequential_fits(tall, tall_ranks),
            atol=1e-10,
            rtol=0,
        )
        assert _shm_segments() <= before
        PROCESS_CREW.retire()
        assert multiprocessing.active_children() == []

    def test_a_failing_rank_fails_the_run_with_its_error(self, tall, tall_ranks):
        """A rank that raises aborts its peer; the run reports the rank's error.

        No worker died, so the crew stays alive and serves the next run.
        """
        from repro.parallel.process_pool import PROCESS_CREW

        options = HOOIOptions(**CREW_LANCZOS)
        hooi(tall, tall_ranks, options)
        crew = PROCESS_CREW.current()
        plan = FaultPlan([FaultSpec("worker.trsvd", after=5)])
        crew.run_job(1, _arm, plan.to_json())
        before = _shm_segments()
        with pytest.raises(RuntimeError, match="InjectedFault.*'worker.trsvd'"):
            hooi(tall, tall_ranks, options)
        assert crew.alive
        result = hooi(tall, tall_ranks, options)
        assert PROCESS_CREW.current() is crew
        np.testing.assert_allclose(
            result.fit_history,
            _sequential_fits(tall, tall_ranks),
            atol=1e-10,
            rtol=0,
        )
        assert _shm_segments() <= before

    def test_rank_crash_descends_the_ladder(self, tall, tall_ranks, monkeypatch):
        """A served job whose ranks keep dying completes on the thread tier."""
        from repro.serving import DecompositionService, JobState

        install_faults(RANK_EXIT)
        monkeypatch.setenv(FAULT_ENV, RANK_EXIT.to_json())

        async def main():
            async with DecompositionService(
                num_workers=2, max_retries=1
            ) as service:
                with pytest.warns(RuntimeWarning, match="degrading"):
                    handle = await service.submit(
                        tall, tall_ranks, **CREW_LANCZOS
                    )
                    result = await handle.result()
                return result, handle.state, service.metrics()

        before = _shm_segments()
        result, state, metrics = asyncio.run(main())
        assert state is JobState.DONE
        assert metrics["fallbacks"]["thread"] == 1
        assert metrics["jobs"]["retries"] == 1
        clear_faults()
        np.testing.assert_allclose(
            result.fit_history,
            _sequential_fits(tall, tall_ranks),
            atol=1e-10,
            rtol=0,
        )
        assert _shm_segments() <= before

    def test_driver_trsvd_fault_fires_on_a_crew_run(
        self, tall, tall_ranks, monkeypatch
    ):
        from repro.parallel.process_pool import HOOIProcessPool

        split = []
        trsvd = HOOIProcessPool.trsvd

        def spy(self, mode, *args, **kwargs):
            split.append(mode)
            return trsvd(self, mode, *args, **kwargs)

        monkeypatch.setattr(HOOIProcessPool, "trsvd", spy)
        injector = install_faults(
            FaultPlan([FaultSpec("trsvd", action="delay", times=-1)])
        )
        hooi(tall, tall_ranks, HOOIOptions(**CREW_LANCZOS))
        sweeps = CREW_LANCZOS["max_iterations"]
        assert split == [0] * sweeps
        assert injector.counters()["trsvd"] == (3 * sweeps, 3 * sweeps)
        # The first factor update is mode 0's, solved on the crew.
        install_faults(FaultPlan([FaultSpec("trsvd")]))
        before = _shm_segments()
        with pytest.raises(InjectedFault, match="point='trsvd'"):
            hooi(tall, tall_ranks, HOOIOptions(**CREW_LANCZOS))
        assert split[-1] == 0 and len(split) == sweeps + 1
        assert _shm_segments() <= before
