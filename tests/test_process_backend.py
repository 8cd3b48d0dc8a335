"""Tests for the zero-copy multiprocess dispatcher and its generations.

Contract: ``execution="process"`` matches the sequential backend to 1e-10
(float64) for both ``ttmc_strategy`` values, respects the float32 dtype
policy, runs inline at ``num_workers=1``, and — crucially for a
shared-memory subsystem — never leaks segments: clean runs, double teardown
and worker crashes must all leave ``/dev/shm`` empty and the resource
tracker silent.  Reuse of one crew by many generations is covered by the
service's ``TestCrewReuse`` (``tests/test_serving.py``).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import HOOIOptions, hooi
from repro.core.ttmc import ttmc_matricized
from repro.engine import (
    COORowsPlan,
    HOOIEngine,
    InlineDispatcher,
    PlanBackend,
    parallel_symbolic,
    resolve_ttmc_backend,
)
from repro.parallel import (
    HOOIProcessPool,
    ProcessConfig,
    ShmArena,
    ShmView,
    WorkerCrashError,
)
from repro.parallel.process_pool import PersistentWorkerCrew
from repro.util.linalg import random_orthonormal

# Every tensor here is below the crew's break-even; keep them on workers.
pytestmark = pytest.mark.usefixtures("every_job_on_the_crew")

RANKS = 5


def _leftover_segments(names):
    """Segment names still present in /dev/shm (empty off-Linux)."""
    base = Path("/dev/shm")
    if not base.exists():
        return []
    return [name for name in names if (base / name).exists()]


def _per_mode_pool(tensor, num_workers=2, **kwargs):
    symbolic = parallel_symbolic(tensor, 1)
    factors = [
        random_orthonormal(s, RANKS, seed=i) for i, s in enumerate(tensor.shape)
    ]
    pool = HOOIProcessPool(
        COORowsPlan(tensor, symbolic, [RANKS] * tensor.order),
        config=ProcessConfig(num_workers=num_workers, **kwargs),
    )
    for mode, factor in enumerate(factors):
        pool.write_factor(mode, factor)
    return pool, factors, symbolic


class TestProcessMatchesSequential:
    @pytest.mark.parametrize("strategy", ["per-mode", "dimtree"])
    def test_float64_matches_to_1e10(self, medium_tensor_3d, strategy):
        options = dict(max_iterations=3, init="hosvd", seed=0,
                       ttmc_strategy=strategy)
        seq = hooi(medium_tensor_3d, RANKS, HOOIOptions(**options))
        proc = hooi(
            medium_tensor_3d, RANKS,
            HOOIOptions(**options, execution="process", num_workers=2),
        )
        assert np.allclose(seq.fit_history, proc.fit_history, atol=1e-10)
        for a, b in zip(
            seq.decomposition.factors, proc.decomposition.factors
        ):
            assert np.allclose(a, b, atol=1e-10)
        assert np.allclose(
            seq.decomposition.core, proc.decomposition.core, atol=1e-10
        )

    def test_four_mode_dimtree(self, small_tensor_4d):
        options = dict(max_iterations=2, init="hosvd", seed=0,
                       ttmc_strategy="dimtree")
        seq = hooi(small_tensor_4d, (3, 3, 2, 2), HOOIOptions(**options))
        proc = hooi(
            small_tensor_4d, (3, 3, 2, 2),
            HOOIOptions(**options, execution="process", num_workers=3),
        )
        assert np.allclose(seq.fit_history, proc.fit_history, atol=1e-10)

    def test_pool_ttmc_matches_kernel_after_factor_refresh(self, medium_tensor_3d):
        pool, factors, symbolic = _per_mode_pool(medium_tensor_3d)
        with pool:
            for mode in range(medium_tensor_3d.order):
                expected = ttmc_matricized(
                    medium_tensor_3d, factors, mode, symbolic=symbolic[mode]
                )[symbolic[mode].rows]
                assert np.allclose(pool.ttmc(mode), expected, atol=1e-12)
            # Broadcast a refreshed factor and verify workers pick it up.
            new_factor = random_orthonormal(
                medium_tensor_3d.shape[0], RANKS, seed=99
            )
            pool.write_factor(0, new_factor)
            factors[0] = new_factor
            expected = ttmc_matricized(
                medium_tensor_3d, factors, 1, symbolic=symbolic[1]
            )[symbolic[1].rows]
            assert np.allclose(pool.ttmc(1), expected, atol=1e-12)


class TestDtypePolicy:
    def test_float32_policy_respected(self, medium_tensor_3d):
        options = dict(max_iterations=3, init="random", seed=0)
        f64 = hooi(
            medium_tensor_3d, RANKS,
            HOOIOptions(**options, execution="process", num_workers=2),
        )
        f32 = hooi(
            medium_tensor_3d, RANKS,
            HOOIOptions(**options, dtype="float32",
                        execution="process", num_workers=2),
        )
        assert f32.decomposition.core.dtype == np.float32
        assert all(f.dtype == np.float32 for f in f32.decomposition.factors)
        assert abs(f32.fit - f64.fit) < 1e-3


class TestDegenerateAndResolver:
    def test_num_workers_one_matches_sequential_exactly(self, small_tensor_3d):
        options = dict(max_iterations=3, init="hosvd", seed=0)
        seq = hooi(small_tensor_3d, 3, HOOIOptions(**options))
        proc = hooi(
            small_tensor_3d, 3,
            HOOIOptions(**options, execution="process", num_workers=1),
        )
        assert seq.fit_history == proc.fit_history
        for a, b in zip(seq.decomposition.factors, proc.decomposition.factors):
            assert np.array_equal(a, b)

    def test_num_workers_one_spawns_no_pool(self, small_tensor_3d, monkeypatch):
        options = HOOIOptions(max_iterations=1, execution="process", num_workers=1)
        backend = resolve_ttmc_backend(options)
        keys = []
        inline_run = InlineDispatcher.run

        def spy(self, plan, key, workspace=None):
            keys.append(key)
            inline_run(self, plan, key, workspace)

        def forbidden(*args, **kwargs):
            raise AssertionError("num_workers=1 must create no process or segment")

        monkeypatch.setattr(InlineDispatcher, "run", spy)
        monkeypatch.setattr(ShmArena, "create", forbidden)
        monkeypatch.setattr(PersistentWorkerCrew, "__init__", forbidden)
        result = HOOIEngine(small_tensor_3d, 3, options, backend=backend).run()
        assert type(backend.dispatcher) is InlineDispatcher
        assert keys == [0, 1, 2]  # one inline range per mode of the sweep
        assert backend.pool is None
        assert result.completed_sweeps == 1

    def test_thread_execution_option(self, small_tensor_3d):
        options = dict(max_iterations=3, init="hosvd", seed=0)
        seq = hooi(small_tensor_3d, 3, HOOIOptions(**options))
        threaded = hooi(
            small_tensor_3d, 3,
            HOOIOptions(**options, execution="thread", num_workers=2),
        )
        assert np.allclose(seq.fit_history, threaded.fit_history, atol=1e-9)

    def test_unknown_execution_rejected(self, small_tensor_3d):
        with pytest.raises(ValueError, match="execution"):
            hooi(small_tensor_3d, 3, HOOIOptions(execution="gpu"))

    def test_distributed_rejects_process_execution(self, small_tensor_3d):
        # Hybrid ranks may run threads (and do, since the hybrid-grain
        # work), but a worker-process pool per simulated rank would
        # oversubscribe the node — rejected with an actionable message.
        from repro.distributed import distributed_hooi
        from repro.partition import make_partition

        partition = make_partition(small_tensor_3d, 2, "coarse-bl")
        with pytest.raises(ValueError, match="oversubscribe"):
            distributed_hooi(
                small_tensor_3d, 3, partition,
                HOOIOptions(max_iterations=1, execution="process"),
            )


class TestTeardownAndLeaks:
    def test_engine_run_leaves_no_segments(self, small_tensor_3d):
        names_seen = []
        original_prepare = PlanBackend.prepare

        def spy(self, eng):
            original_prepare(self, eng)
            if self.pool is not None:
                names_seen.extend(self.pool.segment_names)

        PlanBackend.prepare = spy
        try:
            hooi(small_tensor_3d, 3, HOOIOptions(
                max_iterations=2, execution="process", num_workers=2))
        finally:
            PlanBackend.prepare = original_prepare
        assert names_seen, "the run should have created shared segments"
        assert _leftover_segments(names_seen) == []

    def test_double_teardown_is_clean(self, medium_tensor_3d):
        pool, _, _ = _per_mode_pool(medium_tensor_3d)
        names = pool.segment_names
        pool.close()
        pool.close()  # second teardown must be a no-op, not an error
        assert _leftover_segments(names) == []
        with pytest.raises(RuntimeError):
            pool.ttmc(0)

    def test_worker_crash_raises_and_leaves_no_segments(self, medium_tensor_3d):
        pool, _, _ = _per_mode_pool(medium_tensor_3d, num_workers=2)
        names = pool.segment_names
        victim = pool.workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        with pytest.raises(WorkerCrashError):
            pool.ttmc(0)
        pool.close()
        assert _leftover_segments(names) == []

    def test_arena_lifecycle_idempotent(self):
        arena = ShmArena()
        arena.put("a", np.arange(6.0).reshape(2, 3))
        names = arena.segment_names
        view = ShmView(arena.specs)
        assert np.array_equal(view["a"], np.arange(6.0).reshape(2, 3))
        view.close()
        view.close()
        arena.close()
        arena.unlink()
        arena.unlink()
        assert _leftover_segments(names) == []

    def test_resource_tracker_stays_silent(self, tmp_path):
        """A full spawn-mode run must emit zero resource-tracker noise.

        The tracker prints 'leaked shared_memory' / KeyError complaints from
        a helper process at interpreter exit, so they are only observable
        from outside — run a pool cycle in a subprocess and inspect stderr.
        """
        script = tmp_path / "run_pool.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.core import HOOIOptions, SparseTensor, hooi\n"
            "if __name__ == '__main__':\n"
            "    rng = np.random.default_rng(0)\n"
            "    idx = rng.integers(0, 12, size=(200, 3))\n"
            "    t = SparseTensor(idx, rng.standard_normal(200), (12, 12, 12),\n"
            "                     sum_duplicates=True)\n"
            "    r = hooi(t, 3, HOOIOptions(max_iterations=2,\n"
            "             execution='process', num_workers=2))\n"
            "    assert np.isfinite(r.fit)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_PROCESS_START_METHOD"] = "spawn"
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "leaked shared_memory" not in result.stderr
        assert "resource_tracker" not in result.stderr


class TestGuards:
    @pytest.mark.parametrize(
        "execution", ["sequential", "thread", "process", "distributed"]
    )
    @pytest.mark.parametrize("strategy", ["per-mode", "dimtree"])
    @pytest.mark.parametrize("tensor_format", ["coo", "csf"])
    def test_rank_exceeding_width_fails_fast(
        self, small_tensor_3d, tensor_format, strategy, execution
    ):
        # Mode-0 rank 5 > W_0 = 2*2: the TRSVD of Y_(0) cannot keep 5
        # columns.  Every composition refuses before any work, with one
        # message.
        axes = dict(max_iterations=1, ttmc_strategy=strategy,
                    tensor_format=tensor_format)
        with pytest.raises(ValueError, match="product of the other modes' ranks"):
            if execution == "distributed":
                from repro.distributed import distributed_hooi
                from repro.partition import make_partition

                distributed_hooi(
                    small_tensor_3d, (5, 2, 2),
                    make_partition(small_tensor_3d, 2, "coarse-bl"),
                    HOOIOptions(**axes),
                )
            else:
                hooi(small_tensor_3d, (5, 2, 2), HOOIOptions(
                    **axes, execution=execution, num_workers=2))

    def test_write_factor_shape_mismatch_rejected(self, medium_tensor_3d):
        pool, _, _ = _per_mode_pool(medium_tensor_3d)
        with pool:
            with pytest.raises(ValueError, match="fixed factor shapes"):
                pool.write_factor(
                    0, np.zeros((medium_tensor_3d.shape[0], RANKS + 1))
                )
