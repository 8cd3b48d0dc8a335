"""Fault tolerance: checkpoint/resume, the degradation ladder, the breaker.

What must hold:

* a checkpoint written at sweep ``k`` and resumed reproduces the
  uninterrupted run's factors and fit exactly (property-tested over random
  sweep boundaries across the sequential/thread/process backends);
* checkpoint files are atomic, content-hash verified (corruption is loudly
  rejected) and carry enough metadata to refuse an incompatible resume with
  an actionable error;
* the circuit breaker walks closed → open → half-open → closed
  deterministically, and the ladder descends one rung at a time;
* the serving layer survives a SIGKILLed worker by *resuming* (not
  recomputing) and completes a persistently crashing job on the thread
  tier with the per-tier fallback counter incremented — with no
  ``/dev/shm`` leak either way;
* the orphaned-segment janitor removes exactly the stale repro-prefixed
  segments and nothing else.

Everything here is deterministic: seeded options, injected clocks, scripted
crashes.  The heavier scripted-fault scenarios live in ``test_faults.py``
(the CI "Resilience chaos sweep" re-runs those under fork and spawn).
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hooi import HOOIOptions, hooi
from repro.core.sparse_tensor import SparseTensor
from repro.resilience.checkpoint import (
    CheckpointCorruptError,
    Checkpointer,
    load_checkpoint,
    resolve_resume,
    save_checkpoint,
)
from repro.resilience.degrade import (
    CircuitBreaker,
    CircuitOpenError,
    DegradationLadder,
)

# The process runs and served jobs here are below the crew's break-even.
pytestmark = pytest.mark.usefixtures("every_job_on_the_crew")

GRAM = dict(trsvd_method="gram", seed=0)


def _tensor(shape=(20, 15, 12), nnz=300, seed=7) -> SparseTensor:
    rng = np.random.default_rng(seed)
    idx = np.unique(
        np.stack([rng.integers(0, s, nnz) for s in shape], axis=1), axis=0
    )
    return SparseTensor(idx, rng.standard_normal(len(idx)), shape)


# --------------------------------------------------------------------------- #
# Checkpoint files
# --------------------------------------------------------------------------- #
class TestCheckpointFiles:
    def test_roundtrip_and_integrity(self, tmp_path):
        t = _tensor()
        opts = HOOIOptions(max_iterations=2, checkpoint_dir=str(tmp_path), **GRAM)
        hooi(t, 4, opts)
        path = tmp_path / Checkpointer.FILENAME
        assert path.exists()
        state = load_checkpoint(path)
        assert state.completed_sweeps == 2
        assert state.shape == (20, 15, 12)
        assert state.ranks == (4, 4, 4)
        assert len(state.factors) == 3
        assert state.options["trsvd_method"] == "gram"
        assert state.options_fingerprint == opts.options_fingerprint()
        # No tmp litter from the atomic write protocol.
        assert [p.name for p in tmp_path.iterdir()] == [Checkpointer.FILENAME]

    def test_corruption_is_detected(self, tmp_path):
        t = _tensor()
        hooi(t, 4, HOOIOptions(
            max_iterations=1, checkpoint_dir=str(tmp_path), **GRAM
        ))
        path = tmp_path / Checkpointer.FILENAME
        # Rewrite one payload array while keeping the stored digest: the
        # zip container stays valid, so only the content hash can catch it.
        with np.load(path) as payload:
            entries = {name: payload[name] for name in payload.files}
        entries["factor0"] = entries["factor0"] + 1e-3
        with path.open("wb") as handle:
            np.savez(handle, **entries)
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            load_checkpoint(path)

    def test_truncation_fails_loudly(self, tmp_path):
        t = _tensor()
        hooi(t, 4, HOOIOptions(
            max_iterations=1, checkpoint_dir=str(tmp_path), **GRAM
        ))
        path = tmp_path / Checkpointer.FILENAME
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(Exception):
            load_checkpoint(path)

    def test_non_checkpoint_file_is_rejected(self, tmp_path):
        bogus = tmp_path / "x.ckpt.npz"
        np.savez(bogus.open("wb"), a=np.zeros(3))
        with pytest.raises(Exception, match="not a HOOI checkpoint"):
            load_checkpoint(bogus)

    def test_checkpointer_interval(self, tmp_path):
        t = _tensor()
        ck = Checkpointer(tmp_path, interval=3)
        hooi(t, 4, HOOIOptions(max_iterations=7, tolerance=0.0, **GRAM),
             checkpoint=ck)
        # Sweeps 1 (always), 3 and 6 snapshot; the rolling file holds the
        # last one.
        assert ck.saves == 3
        assert load_checkpoint(ck.path).completed_sweeps == 6

    def test_resolve_resume_forms(self, tmp_path):
        assert resolve_resume(None) is None
        assert resolve_resume(False) is None
        ck = Checkpointer(tmp_path)
        assert resolve_resume("auto", ck) is None  # nothing saved yet
        with pytest.raises(ValueError, match="checkpoint_dir"):
            resolve_resume("auto", None)


# --------------------------------------------------------------------------- #
# Resume semantics
# --------------------------------------------------------------------------- #
class TestResume:
    def test_incompatible_resume_is_rejected(self, tmp_path):
        t = _tensor()
        hooi(t, 4, HOOIOptions(
            max_iterations=2, checkpoint_dir=str(tmp_path), **GRAM
        ))
        # Different ranks: structural mismatch.
        with pytest.raises(ValueError, match="ranks"):
            hooi(t, 5, HOOIOptions(
                max_iterations=4, checkpoint_dir=str(tmp_path), **GRAM
            ), resume="auto")
        # Different solver: numeric-path mismatch, named in the error.
        with pytest.raises(ValueError, match="trsvd_method"):
            hooi(t, 4, HOOIOptions(
                max_iterations=4, checkpoint_dir=str(tmp_path),
                trsvd_method="lanczos", seed=0,
            ), resume="auto")

    def test_volatile_fields_may_change_on_resume(self, tmp_path):
        t = _tensor()
        hooi(t, 4, HOOIOptions(
            max_iterations=2, checkpoint_dir=str(tmp_path), **GRAM
        ))
        # Extending the sweep budget and switching the execution tier are
        # the core resume use cases; both must be accepted.
        res = hooi(t, 4, HOOIOptions(
            max_iterations=5, execution="thread", num_workers=2,
            checkpoint_dir=str(tmp_path), **GRAM,
        ), resume="auto")
        assert res.resumed_sweeps == 2
        assert res.completed_sweeps == 5

    def test_old_spelling_checkpoint_resumes(self, tmp_path):
        """Checkpoints recorded with ``None`` axis spellings still resume.

        Pre-normalization builds serialized options exactly as constructed,
        so a checkpoint may carry ``ttmc_strategy: None`` where the current
        run says ``"per-mode"``.  Those are the same configuration;
        ``check_resume_compatible`` must not reject the resume over a
        spelling split (it normalizes both sides via
        :func:`repro.core.hooi.normalize_axis_fields`).
        """
        t = _tensor()
        hooi(t, 4, HOOIOptions(
            max_iterations=2, checkpoint_dir=str(tmp_path), **GRAM
        ))
        ck = Checkpointer(tmp_path)
        state = ck.load()
        # Rewrite the recorded options the way an old build spelled them.
        for key in (
            "ttmc_strategy", "execution", "tensor_format", "kernel",
            "fallback",
        ):
            assert state.options[key] is not None  # new builds are concrete
            state.options[key] = None
        res = hooi(t, 4, HOOIOptions(
            max_iterations=5, checkpoint_dir=str(tmp_path), **GRAM
        ), resume=state)
        assert res.resumed_sweeps == 2
        assert res.completed_sweeps == 5

    def test_checkpoint_naming_deleted_options_resumes(self, tmp_path):
        """An older build recorded ``block_nnz`` and ``track_fit`` in every
        checkpoint's options.  Only the running options' keys are compared,
        so such a checkpoint resumes and reproduces the uninterrupted run."""
        t = _tensor()
        base = dict(tolerance=0.0, **GRAM)
        full = hooi(t, 4, HOOIOptions(max_iterations=4, **base))
        hooi(t, 4, HOOIOptions(
            max_iterations=2, checkpoint_dir=str(tmp_path), **base
        ))
        ck = Checkpointer(tmp_path)
        state = ck.load()
        state.options.update(block_nnz=None, track_fit=True)
        save_checkpoint(ck.path, state)
        assert {"block_nnz", "track_fit"} <= set(ck.load().options)
        res = hooi(t, 4, HOOIOptions(
            max_iterations=4, checkpoint_dir=str(tmp_path), **base
        ), resume="auto")
        assert res.resumed_sweeps == 2
        assert res.completed_sweeps == 4
        assert res.fit_history == full.fit_history
        for a, b in zip(full.decomposition.factors, res.decomposition.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            full.decomposition.core, res.decomposition.core
        )

    def test_validate_normalizes_axis_spellings(self):
        """validate() writes concrete values back onto None axis fields."""
        opts = HOOIOptions(
            ttmc_strategy=None, execution=None, tensor_format=None,
            kernel=None, fallback=None,
        ).validate()
        assert opts.ttmc_strategy == "per-mode"
        assert opts.execution == "sequential"
        assert opts.tensor_format == "coo"
        assert opts.kernel == "numpy"
        assert opts.fallback == "ladder"
        # The fingerprint of the normalized object equals the all-defaults
        # one — no None-vs-concrete identity split downstream.
        assert (
            opts.options_fingerprint()
            == HOOIOptions().validate().options_fingerprint()
        )

    def test_resume_past_budget_reports_resumed(self, tmp_path):
        t = _tensor()
        full = hooi(t, 4, HOOIOptions(
            max_iterations=3, tolerance=0.0,
            checkpoint_dir=str(tmp_path), **GRAM,
        ))
        res = hooi(t, 4, HOOIOptions(
            max_iterations=3, tolerance=0.0,
            checkpoint_dir=str(tmp_path), **GRAM,
        ), resume="auto")
        assert res.termination == "resumed"
        assert res.completed_sweeps == 3
        assert res.resumed_sweeps == 3
        np.testing.assert_array_equal(
            res.decomposition.core, full.decomposition.core
        )

    @settings(max_examples=5, deadline=None)
    @given(
        boundary=st.integers(min_value=1, max_value=3),
        execution=st.sampled_from(["sequential", "thread", "process"]),
    )
    def test_resume_reproduces_uninterrupted_run(
        self, boundary, execution, tmp_path_factory
    ):
        """Checkpoint → resume at any sweep boundary is exact (1e-10)."""
        tmp = tmp_path_factory.mktemp("ckpt")
        t = _tensor()
        base = dict(
            tolerance=0.0, execution=execution,
            num_workers=1 if execution == "sequential" else 2, **GRAM,
        )
        full = hooi(t, 4, HOOIOptions(max_iterations=4, **base))
        hooi(t, 4, HOOIOptions(
            max_iterations=boundary, checkpoint_dir=str(tmp), **base
        ))
        res = hooi(t, 4, HOOIOptions(
            max_iterations=4, checkpoint_dir=str(tmp), **base
        ), resume="auto")
        assert res.resumed_sweeps == boundary
        assert res.completed_sweeps == full.completed_sweeps == 4
        for a, b in zip(full.decomposition.factors, res.decomposition.factors):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)
        np.testing.assert_allclose(
            full.decomposition.core, res.decomposition.core, atol=1e-10, rtol=0
        )
        assert res.fit_history == pytest.approx(full.fit_history, abs=1e-10)


# --------------------------------------------------------------------------- #
# Termination reporting (the HOOIResult bugfix)
# --------------------------------------------------------------------------- #
class TestTermination:
    def test_max_iters(self):
        res = hooi(_tensor(), 4, HOOIOptions(
            max_iterations=3, tolerance=0.0, **GRAM
        ))
        assert res.termination == "max_iters"
        assert res.completed_sweeps == res.iterations == 3
        assert res.resumed_sweeps == 0

    def test_converged(self):
        res = hooi(_tensor(), 4, HOOIOptions(
            max_iterations=50, tolerance=1e-6, **GRAM
        ))
        assert res.converged
        assert res.termination == "converged"
        assert res.completed_sweeps < 50

    def test_graceful_cancel_returns_partial_result(self):
        seen = []

        def stop_after_two():
            # Truthy return = graceful stop (raising still aborts hard).
            seen.append(None)
            return len([s for s in seen]) > 8

        res = hooi(_tensor(), 4, HOOIOptions(
            max_iterations=50, tolerance=0.0, **GRAM
        ), cancel_check=stop_after_two)
        assert res.termination == "cancelled"
        assert not res.converged
        assert 0 < res.completed_sweeps < 50
        assert res.fit_history  # partial but populated

    def test_cancel_before_the_first_sweep(self):
        """No sweep ran: the fit of the all-zero core is the one entry."""
        res = hooi(_tensor(), 4, HOOIOptions(**GRAM), cancel_check=lambda: True)
        assert res.termination == "cancelled"
        assert res.completed_sweeps == 0
        assert res.fit_history == [0.0]
        assert res.fit == 0.0


# --------------------------------------------------------------------------- #
# Ladder / breaker units
# --------------------------------------------------------------------------- #
class TestDegradationLadder:
    def test_descent_order(self):
        ladder = DegradationLadder()
        steps = ladder.steps_from(
            execution="process", kernel="numba", tensor_format="csf"
        )
        assert [(s.field, s.to_value) for s in steps] == [
            ("execution", "thread"),
            ("execution", "sequential"),
            ("kernel", "numpy"),
            ("tensor_format", "coo"),
        ]

    def test_bottom_of_ladder(self):
        assert DegradationLadder().next_step(
            execution="sequential", kernel="numpy", tensor_format="coo"
        ) is None

    def test_tier_names_the_destination(self):
        step = DegradationLadder().next_step(execution="process")
        assert step.tier == "thread"
        assert "process -> thread" in step.describe()


class TestCircuitBreaker:
    def test_state_machine(self):
        clock = [0.0]
        b = CircuitBreaker(
            failure_threshold=2, cooldown=10.0, clock=lambda: clock[0]
        )
        assert b.state == "closed"
        b.record_failure()
        b.before_call()  # still closed below the threshold
        b.record_failure()
        assert b.state == "open"
        assert b.trips == 1
        with pytest.raises(CircuitOpenError, match="breaker is open"):
            b.before_call()
        clock[0] = 10.0
        assert b.state == "half-open"
        b.before_call()  # the single probe passes...
        with pytest.raises(CircuitOpenError):
            b.before_call()  # ...concurrent callers do not
        b.record_success()
        assert b.state == "closed"

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        b = CircuitBreaker(
            failure_threshold=1, cooldown=5.0, clock=lambda: clock[0]
        )
        b.record_failure()
        clock[0] = 5.0
        b.before_call()
        b.record_failure()
        assert b.state == "open"
        assert b.trips == 2


# --------------------------------------------------------------------------- #
# Orphan janitor
# --------------------------------------------------------------------------- #
class TestCleanupOrphans:
    def test_age_gate_prefix_and_dry_run(self, tmp_path):
        from repro.parallel.shm import cleanup_orphans

        stale = tmp_path / "rpshm-deadbeef-0"
        fresh = tmp_path / "rpshm-cafecafe-0"
        other = tmp_path / "psm_someone_elses"
        for p in (stale, fresh, other):
            p.write_bytes(b"x")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        os.utime(other, (old, old))

        preview = cleanup_orphans(
            max_age_seconds=3600, dry_run=True, shm_dir=str(tmp_path)
        )
        assert preview == ["rpshm-deadbeef-0"]
        assert stale.exists()  # dry run touched nothing

        removed = cleanup_orphans(max_age_seconds=3600, shm_dir=str(tmp_path))
        assert removed == ["rpshm-deadbeef-0"]
        assert not stale.exists()
        assert fresh.exists()  # too young
        assert other.exists()  # not ours: never considered

    def test_missing_dir_is_noop(self, tmp_path):
        from repro.parallel.shm import cleanup_orphans

        assert cleanup_orphans(shm_dir=str(tmp_path / "nope")) == []


# --------------------------------------------------------------------------- #
# Serving: resume-on-crash and ladder fallback (the acceptance scenarios)
# --------------------------------------------------------------------------- #
pytestmark_posix = pytest.mark.skipif(
    os.name != "posix", reason="worker pools need POSIX shared memory"
)


def _shm_segments():
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("psm_") or name.startswith("rpshm-")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


async def _wait_progress(handle, sweeps: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        progress = handle.progress
        if progress is not None and progress[0] + 1 >= sweeps:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"job never reached sweep {sweeps}")


@pytestmark_posix
class TestServingResilience:
    def test_sigkill_resumes_from_checkpoint(self, medium_tensor_3d, tmp_path):
        """A killed worker costs the sweeps since the last checkpoint, not all."""
        from repro.serving import DecompositionService

        run_opts = dict(
            execution="process", max_iterations=60, tolerance=0.0, **GRAM
        )

        async def main():
            async with DecompositionService(
                num_workers=1, checkpoint_dir=tmp_path, warmup=False
            ) as service:
                handle = await service.submit(medium_tensor_3d, 4, **run_opts)
                await _wait_progress(handle, sweeps=3)
                os.kill(
                    service._pool._crew.workers[0].pid, signal.SIGKILL
                )
                result = await handle.result()
                return result, service.metrics()

        before = _shm_segments()
        result, metrics = asyncio.run(main())
        assert result.resumed_sweeps > 0  # no full recompute
        assert result.completed_sweeps == 60
        assert metrics["jobs"]["retries"] == 1
        assert metrics["jobs"]["resumed_sweeps"] == result.resumed_sweeps
        assert metrics["jobs"]["done"] == 1
        # The resumed run matches the uninterrupted computation (1e-10: the
        # conformance bar every execution tier already meets).
        full = hooi(medium_tensor_3d, 4, HOOIOptions(**run_opts))
        for a, b in zip(
            full.decomposition.factors, result.decomposition.factors
        ):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)
        # The completed job's rolling checkpoint was discarded...
        assert list(tmp_path.iterdir()) == []
        # ...and nothing leaked into /dev/shm.
        assert _shm_segments() <= before

    def test_breaker_opens_and_job_falls_back_to_thread(
        self, medium_tensor_3d, monkeypatch
    ):
        """Persistent pool failure → breaker opens → thread tier finishes."""
        from repro.parallel.process_pool import WorkerCrashError
        from repro.serving import DecompositionService
        from repro.serving import service as service_module

        calls = []
        run_direct = service_module.run_direct

        def always_crash(job, *, crew=None, **kwargs):
            if crew is None:  # a degraded (thread-tier) attempt runs for real
                return run_direct(job, **kwargs)
            calls.append(job.id)
            return (job, "crash", WorkerCrashError("injected"))

        monkeypatch.setattr(service_module, "run_direct", always_crash)

        async def main():
            async with DecompositionService(
                num_workers=1, max_retries=1, breaker_threshold=2,
                warmup=False,
            ) as service:
                with pytest.warns(RuntimeWarning, match="degrading"):
                    handle = await service.submit(
                        medium_tensor_3d, 3, execution="process",
                        max_iterations=3, **GRAM,
                    )
                    result = await handle.result()
                    # A second pooled submission while the circuit is open
                    # degrades immediately — no further pool attempts.
                    second = await service.submit(
                        medium_tensor_3d, 5, execution="process",
                        max_iterations=3, **GRAM,
                    )
                    await second.result()
                return result, service.metrics(), handle.state

        before = _shm_segments()
        result, metrics, state = asyncio.run(main())
        from repro.serving import JobState

        assert state is JobState.DONE
        assert len(calls) == 2  # first attempt + one retry; breaker then open
        assert metrics["fallbacks"]["thread"] == 2
        assert metrics["pool"]["breaker_state"] == "open"
        assert metrics["jobs"]["done"] == 2
        assert metrics["jobs"]["failed"] == 0
        # The degraded run computes the same decomposition the process tier
        # would have (execution tiers are numerically interchangeable).
        full = hooi(medium_tensor_3d, 3, HOOIOptions(
            max_iterations=3, **GRAM
        ))
        for a, b in zip(
            full.decomposition.factors, result.decomposition.factors
        ):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)
        assert _shm_segments() <= before

    def test_fallback_none_fails_loudly(self, small_tensor_3d, monkeypatch):
        from repro.parallel.process_pool import WorkerCrashError
        from repro.serving import DecompositionService, JobState
        from repro.serving import service as service_module

        monkeypatch.setattr(
            service_module, "run_direct",
            lambda job, **kwargs: (job, "crash", WorkerCrashError("injected")),
        )

        async def main():
            async with DecompositionService(
                num_workers=1, max_retries=0, warmup=False
            ) as service:
                handle = await service.submit(
                    small_tensor_3d, 3, execution="process",
                    fallback="none", max_iterations=2, **GRAM,
                )
                with pytest.raises(WorkerCrashError):
                    await handle.result()
                return handle.state, service.metrics()

        state, metrics = asyncio.run(main())
        assert state is JobState.FAILED
        assert metrics["fallbacks"] == {}


# --------------------------------------------------------------------------- #
# Options plumbing
# --------------------------------------------------------------------------- #
class TestResilienceOptions:
    def test_validation(self):
        with pytest.raises(ValueError, match="fallback"):
            HOOIOptions(fallback="maybe").validate()
        with pytest.raises(ValueError, match="checkpoint_interval"):
            HOOIOptions(checkpoint_interval=0).validate()

    def test_service_rejects_negative_retries(self):
        from repro.serving import DecompositionService

        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            DecompositionService(max_retries=-1)

    def test_serialization_roundtrip(self):
        opts = HOOIOptions(
            checkpoint_dir="/tmp/ck", checkpoint_interval=3, fallback="none"
        )
        back = HOOIOptions.from_dict(opts.to_dict())
        assert back == opts
        assert back.options_fingerprint() == opts.options_fingerprint()

    def test_fallback_policies_defined_once(self):
        """``degrade`` and the package export are the ``core.hooi`` tuple."""
        import importlib

        import repro.resilience
        from repro.resilience import degrade

        policies = importlib.import_module("repro.core.hooi").FALLBACK_POLICIES
        assert degrade.FALLBACK_POLICIES is policies
        assert repro.resilience.FALLBACK_POLICIES is policies

    def test_distributed_rejects_checkpoint_args(self):
        from repro import decompose

        with pytest.raises(ValueError, match="single-node"):
            decompose(_tensor(), 4, execution="distributed", resume="auto")
