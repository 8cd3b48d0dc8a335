"""Tests for the unified HOOI engine: backends, dtype policy, workspaces.

The engine refactor's contract: one iteration loop drives every HOOI
variant, sequential and shared results stay numerically identical, the
``float32`` dtype policy runs end-to-end on all three drivers within 1e-3 of
the ``float64`` fit, and the workspace pool eliminates per-mode ``Y_(n)``
reallocation.
"""

import numpy as np
import pytest

from repro import decompose
from repro.core import HOOIOptions, SparseTensor, hooi
from repro.data import planted_lowrank_tensor
from repro.distributed import distributed_hooi
from repro.engine import (
    COORowsPlan,
    CSFSlabPlan,
    DimensionTree,
    HOOIEngine,
    InlineDispatcher,
    PlanBackend,
    ProcessDispatcher,
    ThreadDispatcher,
    WorkspacePool,
    resolve_ttmc_backend,
)
from repro.partition import make_partition


@pytest.fixture(scope="module")
def lowrank():
    """A planted low-rank observation tensor all dtype tests share."""
    tensor, _ = planted_lowrank_tensor((30, 24, 18), (3, 3, 2), 3000, seed=4)
    return tensor


class TestEngineDirect:
    def test_engine_matches_hooi_wrapper(self, small_tensor_3d):
        options = HOOIOptions(max_iterations=3, init="random", seed=0)
        via_wrapper = hooi(small_tensor_3d, (5, 4, 3), options)
        via_engine = HOOIEngine(
            small_tensor_3d, (5, 4, 3), options, backend=PlanBackend()
        ).run()
        assert via_engine.fit_history == via_wrapper.fit_history
        for a, b in zip(
            via_engine.decomposition.factors, via_wrapper.decomposition.factors
        ):
            assert np.array_equal(a, b)

    def test_threaded_backend_matches_sequential(self, medium_tensor_3d):
        options = HOOIOptions(max_iterations=3, init="hosvd", seed=0)
        seq = HOOIEngine(medium_tensor_3d, 5, options).run()
        par = HOOIEngine(
            medium_tensor_3d, 5, options,
            backend=PlanBackend(
                dispatcher=ThreadDispatcher(3)
            ),
        ).run()
        assert np.allclose(seq.fit_history, par.fit_history, atol=1e-9)


class TestResolveTTMcBackend:
    """The plan follows (format, strategy); the dispatcher follows execution."""

    PLANS = {
        ("coo", "per-mode"): COORowsPlan,
        ("csf", "per-mode"): CSFSlabPlan,
        ("coo", "dimtree"): DimensionTree,
        ("csf", "dimtree"): DimensionTree,
    }
    DISPATCHERS = {
        "sequential": InlineDispatcher,
        "thread": ThreadDispatcher,
        "process": ProcessDispatcher,
    }

    @pytest.mark.parametrize("execution", ["sequential", "thread", "process"])
    @pytest.mark.parametrize("strategy", ["per-mode", "dimtree"])
    @pytest.mark.parametrize("fmt", ["coo", "csf"])
    def test_cell(self, fmt, strategy, execution):
        backend = resolve_ttmc_backend(HOOIOptions(
            tensor_format=fmt, ttmc_strategy=strategy, execution=execution,
            num_workers=2,
        ))
        assert type(backend) is PlanBackend
        assert backend.plan_source is self.PLANS[(fmt, strategy)]
        assert type(backend.dispatcher) is self.DISPATCHERS[execution]
        assert backend.dispatcher.width == (1 if execution == "sequential" else 2)

    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_one_worker_resolves_inline(self, execution):
        backend = resolve_ttmc_backend(
            HOOIOptions(execution=execution, num_workers=1)
        )
        assert type(backend.dispatcher) is InlineDispatcher

    def test_iteration_seconds_recorded(self, small_tensor_3d):
        engine = HOOIEngine(small_tensor_3d, 3, HOOIOptions(max_iterations=2))
        engine.run()
        assert len(engine.iteration_seconds) == 2
        assert all(t > 0 for t in engine.iteration_seconds)


class TestSharedCallback:
    def test_threaded_run_invokes_callback(self, medium_tensor_3d):
        """Parity with the sequential driver: callback(iteration, fit)."""
        calls = []
        decompose(
            medium_tensor_3d, 5, execution="thread", num_workers=2,
            options=HOOIOptions(max_iterations=3, init="hosvd", seed=0),
            callback=lambda it, fit: calls.append((it, fit)),
        )
        assert [it for it, _ in calls] == [0, 1, 2]
        seq_calls = []
        hooi(
            medium_tensor_3d, 5,
            HOOIOptions(max_iterations=3, init="hosvd", seed=0),
            callback=lambda it, fit: seq_calls.append((it, fit)),
        )
        assert np.allclose([f for _, f in calls], [f for _, f in seq_calls],
                           atol=1e-9)


class TestDistributedTRSVDMethods:
    def test_distributed_rejects_non_lanczos(self, lowrank):
        """Only the Lanczos TRSVD is distributed; anything else fails fast."""
        partition = make_partition(lowrank, 2, "coarse-bl")
        with pytest.raises(ValueError, match="trsvd_method='lanczos'"):
            distributed_hooi(
                lowrank, (3, 3, 2), partition,
                HOOIOptions(max_iterations=1, trsvd_method="gram"),
            )


class TestDtypePolicy:
    """float32 HOOI must reach a fit within 1e-3 of float64 on all drivers."""

    RANKS = (3, 3, 2)

    def _options(self, dtype):
        return HOOIOptions(max_iterations=4, init="random", seed=0, dtype=dtype)

    def test_sequential_float32_close_to_float64(self, lowrank):
        f64 = hooi(lowrank, self.RANKS, self._options("float64"))
        f32 = hooi(lowrank, self.RANKS, self._options("float32"))
        assert f32.decomposition.core.dtype == np.float32
        assert f32.decomposition.factors[0].dtype == np.float32
        assert abs(f32.fit - f64.fit) < 1e-3

    def test_shared_float32_close_to_float64(self, lowrank):
        f64 = decompose(lowrank, self.RANKS, execution="thread", num_workers=3,
                        options=self._options("float64"))
        f32 = decompose(lowrank, self.RANKS, execution="thread", num_workers=3,
                        options=self._options("float32"))
        assert f32.decomposition.core.dtype == np.float32
        assert abs(f32.fit - f64.fit) < 1e-3

    def test_distributed_float32_close_to_float64(self, lowrank):
        partition = make_partition(lowrank, 3, "fine-hp", seed=0)
        f64 = distributed_hooi(lowrank, self.RANKS, partition,
                               self._options("float64"))
        f32 = distributed_hooi(lowrank, self.RANKS, partition,
                               self._options("float32"))
        assert f32.decomposition.core.dtype == np.float32
        assert abs(f32.fit - f64.fit) < 1e-3

    def test_float32_ttmc_buffers_are_float32(self, lowrank):
        pool = WorkspacePool()
        hooi(lowrank, self.RANKS, self._options("float32"), workspace=pool)
        assert pool.num_buffers > 0
        assert all(key[2] == np.float32 for key in pool._buffers)

    def test_met_baseline_respects_dtype_policy(self, lowrank):
        """Regression: the TTM-chain baseline must not mix core/factor dtypes."""
        from repro.baselines.met import met_hooi

        result = met_hooi(lowrank, self.RANKS, self._options("float32"))
        assert result.decomposition.core.dtype == np.float32
        assert all(f.dtype == np.float32 for f in result.decomposition.factors)

    def test_invalid_dtype_rejected(self, small_tensor_3d):
        with pytest.raises(ValueError):
            hooi(small_tensor_3d, 2, HOOIOptions(dtype="int32"))

    def test_sparse_tensor_astype_roundtrip(self, small_tensor_3d):
        f32 = small_tensor_3d.astype("float32")
        assert f32.dtype == np.float32
        assert f32.astype("float32") is f32
        back = f32.astype(np.float64)
        assert back.dtype == np.float64
        assert np.allclose(back.values, small_tensor_3d.values, atol=1e-6)


class TestWorkspacePool:
    def test_take_reuses_buffer(self):
        pool = WorkspacePool()
        a = pool.take((4, 5), np.float64)
        b = pool.take((4, 5), np.float64)
        assert a is b
        assert pool.allocations == 1 and pool.reuses == 1
        c = pool.take((4, 5), np.float32)
        assert c is not a
        assert pool.allocations == 2

    def test_zeros_clears_content(self):
        pool = WorkspacePool()
        buf = pool.take((3, 3))
        buf[:] = 7.0
        again = pool.zeros((3, 3))
        assert again is buf
        assert np.all(again == 0.0)

    def test_engine_allocations_stop_after_first_iteration(self, medium_tensor_3d):
        """Steady-state HOOI iterations perform zero pool allocations."""
        pool = WorkspacePool()
        hooi(medium_tensor_3d, 5,
             HOOIOptions(max_iterations=1, init="random", seed=0),
             workspace=pool)
        allocations_after_first = pool.allocations
        hooi(medium_tensor_3d, 5,
             HOOIOptions(max_iterations=4, init="random", seed=0),
             workspace=pool)
        assert pool.allocations == allocations_after_first
        assert pool.reuses > 0

    def test_pooled_run_matches_unpooled(self, medium_tensor_3d):
        options = HOOIOptions(max_iterations=3, init="random", seed=0)
        pooled = hooi(medium_tensor_3d, 5, options, workspace=WorkspacePool())
        plain = hooi(medium_tensor_3d, 5, options)
        assert pooled.fit_history == plain.fit_history

    @pytest.mark.parametrize("strategy", ["per-mode", "dimtree"])
    def test_shared_pool_across_different_sparsity_patterns(self, strategy):
        """Regression for the touched-rows zeroing optimization.

        Two tensors with the same shape but different non-empty rows reuse
        the same pooled ``Y_(n)`` buffers; rows outside the second tensor's
        ``J_n`` must read as zero, not as the first run's leftovers.
        """
        def tensor_with_rows(seed, row_lo, row_hi):
            gen = np.random.default_rng(seed)
            nnz = 600
            idx = np.column_stack([
                gen.integers(row_lo, row_hi, size=nnz),
                gen.integers(0, 30, size=nnz),
                gen.integers(0, 30, size=nnz),
            ])
            return SparseTensor(idx, gen.standard_normal(nnz), (40, 30, 30),
                                sum_duplicates=True)

        # First tensor touches mode-0 rows [0, 40); the second only [20, 40).
        first = tensor_with_rows(1, 0, 40)
        second = tensor_with_rows(2, 20, 40)
        options = HOOIOptions(max_iterations=2, init="hosvd", seed=0,
                              ttmc_strategy=strategy)
        pool = WorkspacePool()
        hooi(first, 4, options, workspace=pool)
        shared = hooi(second, 4, options, workspace=pool)
        fresh = hooi(second, 4, options)
        assert shared.fit_history == fresh.fit_history
        for a, b in zip(shared.decomposition.factors,
                        fresh.decomposition.factors):
            assert np.array_equal(a, b)

    def test_tags_separate_equal_shapes(self):
        pool = WorkspacePool()
        a = pool.take((4, 4), np.float64, tag="ttmc-out")
        b = pool.take((4, 4), np.float64, tag="dimtree0-node1")
        assert a is not b

    def test_scratch_never_aliases_output(self):
        """A pooled ``Y_(n)`` buffer with one nonzero per row matches a fresh one.

        One nonzero per mode-0 row makes every per-block buffer the shape of
        the output, the case where a shape-keyed pool could once hand the
        output out as scratch.  The TTMc now draws no scratch from the pool,
        and a pooled output must still give the reference result.
        """
        from repro.core import ttmc_matricized
        from repro.util.linalg import random_orthonormal

        n = 6
        idx = np.column_stack(
            [np.arange(n), np.arange(n) % n, (np.arange(n) * 2) % n]
        )
        tensor = SparseTensor(idx, np.arange(1.0, n + 1), (n, n, n))
        factors = [random_orthonormal(n, 2, seed=i) for i in range(3)]
        reference = ttmc_matricized(tensor, factors, 0)
        pool = WorkspacePool()
        out = pool.take((n, 4), np.float64, tag="ttmc-out")
        pooled = ttmc_matricized(tensor, factors, 0, out=out)
        assert np.allclose(pooled, reference)

    def test_integer_factors_still_promote_to_float64(self, small_tensor_3d):
        """Regression: bool/int8 kron operands compute in float64, not float32."""
        from repro.core.kron import batch_kron_rows, kron_dtype

        assert kron_dtype(np.zeros(2, dtype=bool), np.zeros(2, dtype=np.int8)) \
            == np.float64
        out = batch_kron_rows(
            [np.ones((3, 2), dtype=np.int8), np.ones((3, 2), dtype=bool)]
        )
        assert out.dtype == np.float64

    def test_out_dtype_mismatch_rejected(self, small_tensor_3d, factors_3d):
        """A wrong-dtype out buffer raises instead of silently downcasting."""
        from repro.core import ttmc_matricized

        width = factors_3d[1].shape[1] * factors_3d[2].shape[1]
        bad = np.zeros((small_tensor_3d.shape[0], width), dtype=np.float32)
        with pytest.raises(ValueError, match="dtype"):
            ttmc_matricized(small_tensor_3d, factors_3d, 0, out=bad)

    def test_non_policy_float_dtypes_promote_to_float64(self):
        """float16 / extended precision are outside the policy -> float64."""
        from repro.core.kron import kron_dtype, kron_rows

        assert kron_dtype(np.zeros(2, dtype=np.float16)) == np.float64
        assert kron_dtype(np.zeros(2, dtype=np.longdouble)) == np.float64
        assert kron_rows([np.ones(2, dtype=np.float16)]).dtype == np.float64
        assert kron_dtype(np.zeros(2, dtype=np.float32)) == np.float32


class TestNoDuplicatedLoop:
    """Every HOOI driver must route its sweep through repro.engine."""

    def test_baseline_backends_share_engine(self, small_tensor_3d):
        from repro.baselines.met import TTMChainBackend, met_hooi
        from repro.engine.backend import ExecutionBackend

        assert issubclass(TTMChainBackend, ExecutionBackend)
        options = HOOIOptions(max_iterations=2, init="random", seed=0)
        assert np.allclose(
            met_hooi(small_tensor_3d, 3, options).fit_history,
            hooi(small_tensor_3d, 3, options).fit_history,
            atol=1e-8,
        )

    def test_distributed_backend_shares_engine(self):
        from repro.distributed.dist_hooi import DistributedBackend
        from repro.engine.backend import ExecutionBackend

        assert issubclass(DistributedBackend, ExecutionBackend)

    def test_drivers_have_no_private_mode_sweep(self):
        """The ``for mode in range(...)`` sweep lives only in the engine."""
        import inspect

        import repro.api as api_mod
        import repro.core.hooi as seq_mod
        import repro.distributed.dist_hooi as dist_mod

        for module in (seq_mod, api_mod, dist_mod):
            source = inspect.getsource(module)
            assert "for iteration in range" not in source, module.__name__
