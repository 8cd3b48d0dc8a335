"""The compiled-kernel tier: registry contract, edge cases, bit parity.

The ``kernel`` engine axis routes the TTMc hot loops either through the
vectorized NumPy kernels (``"numpy"``) or the fused loop bodies of
:mod:`repro.kernels` (``"numba"``).  The conformance matrix
(``test_conformance_matrix.py``) already asserts end-to-end engine parity
across the axis; this file covers what the matrix cannot see:

* the registry itself — availability probing, the actionable error on a
  numba-less interpreter, lazy table caching, warmup;
* kernel-level edge cases — empty row blocks, single-fiber trees, tensors
  whose tree degenerates to one chain;
* dtype behaviour — float32 runs drift from float64 by at most 1e-3 on the
  small fixtures here, and *exactly representable* inputs (small integers
  scaled by powers of two) produce **bit-identical** results across tiers,
  because every product and partial sum of such inputs is exact, however
  the tiers associate them (hypothesis generates the inputs);
* the allocation contract — with a warm :class:`WorkspacePool`, repeated
  CSF sweeps perform zero pool allocations on either tier.

Without numba installed, the whole file runs the numba tier through the
registry's interpreted fallback (``REPRO_KERNEL_FORCE_PYTHON``) — the exact
loop bodies numba compiles, so everything but the JIT itself is covered.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import symbolic_ttmc
from repro.core.ttmc import restrict_symbolic, ttmc_matricized
from repro.engine import COORowsPlan, InlineDispatcher
from repro.engine.workspace import WorkspacePool
from repro.kernels import (
    KERNEL_TIERS,
    kernel_available,
    kernel_table,
    numba_available,
    require_kernel,
    warmup_kernels,
)
from repro.sparse import CSFTensor, csf_ttmc_compact, csf_ttmc_matricized
from repro.sparse.csf import rooted_mode_order


@pytest.fixture(scope="module", autouse=True)
def _kernel_tier_fallback():
    """Serve the numba tier interpreted when numba is not installed."""
    if numba_available() or os.environ.get("REPRO_KERNEL_FORCE_PYTHON"):
        yield
        return
    os.environ["REPRO_KERNEL_FORCE_PYTHON"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_KERNEL_FORCE_PYTHON", None)


def make_tensor(shape, nnz, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    idx = np.unique(
        np.stack([rng.integers(0, s, nnz) for s in shape], axis=1), axis=0
    )
    values = rng.standard_normal(idx.shape[0]).astype(dtype)
    return SparseTensor(idx, values, shape)


def make_factors(shape, ranks, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal((s, r)).astype(dtype)
        for s, r in zip(shape, ranks)
    ]


class TestRegistry:
    def test_numpy_tier_always_available(self):
        assert kernel_available("numpy")
        assert require_kernel("numpy") == "numpy"
        assert kernel_table("numpy") is None

    def test_unknown_tier_rejected(self):
        assert not kernel_available("fortran")
        with pytest.raises(ValueError, match="unknown kernel"):
            require_kernel("fortran")

    def test_numba_unavailable_error_is_actionable(self, monkeypatch):
        """Without numba (and without the fallback hook) the error names
        both the install command and the numpy escape hatch."""
        if numba_available():
            pytest.skip("numba is installed; the availability error cannot fire")
        monkeypatch.delenv("REPRO_KERNEL_FORCE_PYTHON", raising=False)
        assert not kernel_available("numba")
        with pytest.raises(ValueError) as excinfo:
            require_kernel("numba")
        message = str(excinfo.value)
        assert "pip install numba" in message
        assert "numpy" in message

    def test_table_is_cached(self):
        table = kernel_table("numba")
        assert table is not None
        assert kernel_table("numba") is table

    def test_table_reports_compilation_state(self):
        table = kernel_table("numba")
        # Interpreted fallback <=> numba absent (with the autouse fixture on).
        assert table.compiled == numba_available()

    def test_warmup_runs_every_dispatcher(self):
        assert warmup_kernels("numpy") is None
        table = warmup_kernels("numba")
        assert table is not None
        table32 = warmup_kernels("numba", dtype=np.float32)
        assert table32 is table  # warmup never rebuilds the table

    def test_tier_tuple_matches_options_axis(self):
        from repro.core.hooi import KERNELS

        assert tuple(KERNEL_TIERS) == tuple(KERNELS)


class TestCOOEdgeCases:
    SHAPE = (9, 7, 5)
    RANKS = (3, 2, 2)

    def test_empty_row_block(self):
        """A plan (or range) with zero rows gives a well-formed empty block."""
        tensor = make_tensor(self.SHAPE, 60, seed=0)
        factors = make_factors(self.SHAPE, self.RANKS, seed=1)
        subset = restrict_symbolic(
            symbolic_ttmc(tensor, 0), np.empty(0, dtype=np.int64)
        )
        plan = COORowsPlan(tensor, {0: subset}, kernel="numba")
        assert InlineDispatcher().ttmc(plan, 0, factors).shape == (0, 4)
        plan.body(0, 0, 0)  # the compiled range body on zero rows

    def test_row_subset_matches_numpy(self):
        """The compiled branch of the rows= path (incl. absent rows)."""
        tensor = make_tensor(self.SHAPE, 60, seed=0)
        factors = make_factors(self.SHAPE, self.RANKS, seed=1)
        rows = np.asarray([0, 3, 8], dtype=np.int64)
        ref = ttmc_matricized(tensor, factors, 0, rows=rows)
        got = ttmc_matricized(tensor, factors, 0, rows=rows, kernel="numba")
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_empty_tensor(self):
        tensor = SparseTensor(
            np.empty((0, 3), dtype=np.int64), np.empty(0), self.SHAPE
        )
        factors = make_factors(self.SHAPE, self.RANKS, seed=1)
        out = ttmc_matricized(tensor, factors, 1, kernel="numba")
        assert out.shape == (7, 6)
        assert not out.any()

    def test_single_nonzero(self):
        tensor = SparseTensor(
            np.asarray([[2, 3, 1]], dtype=np.int64), np.asarray([2.5]),
            self.SHAPE,
        )
        factors = make_factors(self.SHAPE, self.RANKS, seed=2)
        for mode in range(3):
            ref = ttmc_matricized(tensor, factors, mode)
            got = ttmc_matricized(tensor, factors, mode, kernel="numba")
            np.testing.assert_allclose(got, ref, atol=1e-14)


class TestCSFEdgeCases:
    def test_single_fiber_tree(self):
        """All nonzeros share one root fiber: every level has one node chain."""
        idx = np.asarray(
            [[4, 0, 0], [4, 0, 1], [4, 0, 2], [4, 1, 0]], dtype=np.int64
        )
        tensor = SparseTensor(idx, np.asarray([1.0, 2.0, 3.0, 4.0]), (6, 3, 4))
        factors = make_factors((6, 3, 4), (2, 2, 2), seed=3)
        for mode in range(3):
            csf = CSFTensor(
                tensor, mode_order=rooted_mode_order(tensor.shape, mode)
            )
            ref = ttmc_matricized(tensor, factors, mode)
            got = csf_ttmc_matricized(csf, factors, mode, kernel="numba")
            np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_one_nonzero_per_fiber(self):
        """Diagonal-like tensor: no prefix sharing at all, fibers of size 1."""
        idx = np.asarray([[i, i % 3, i % 4] for i in range(5)], dtype=np.int64)
        tensor = SparseTensor(idx, np.arange(1.0, 6.0), (5, 3, 4))
        factors = make_factors((5, 3, 4), (2, 2, 2), seed=4)
        for mode in range(3):
            csf = CSFTensor(
                tensor, mode_order=rooted_mode_order(tensor.shape, mode)
            )
            ref = ttmc_matricized(tensor, factors, mode)
            got = csf_ttmc_matricized(csf, factors, mode, kernel="numba")
            np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_empty_tree(self):
        tensor = SparseTensor(
            np.empty((0, 3), dtype=np.int64), np.empty(0), (5, 3, 4)
        )
        factors = make_factors((5, 3, 4), (2, 2, 2), seed=5)
        for mode in range(3):
            csf = CSFTensor(
                tensor, mode_order=rooted_mode_order(tensor.shape, mode)
            )
            rows, block = csf_ttmc_compact(csf, factors, mode, kernel="numba")
            assert rows.shape == (0,)
            assert block.shape == (0, 4)

    def test_four_mode_rooted_trees(self):
        """Four levels and unequal ranks: every rooted tree's column order."""
        shape = (5, 4, 6, 3)
        tensor = make_tensor(shape, 70, seed=6)
        factors = make_factors(shape, (2, 2, 3, 2), seed=7)
        for mode in range(4):
            csf = CSFTensor(tensor, mode_order=rooted_mode_order(shape, mode))
            ref = ttmc_matricized(tensor, factors, mode)
            got = csf_ttmc_matricized(csf, factors, mode, kernel="numba")
            np.testing.assert_allclose(got, ref, atol=1e-11)


class TestDtypeBehaviour:
    SHAPE = (8, 6, 5)
    RANKS = (3, 2, 2)

    @pytest.mark.parametrize("kernel", KERNEL_TIERS)
    def test_float32_tracks_float64_within_1e3(self, kernel):
        tensor64 = make_tensor(self.SHAPE, 80, seed=8)
        factors64 = make_factors(self.SHAPE, self.RANKS, seed=9)
        tensor32 = tensor64.astype(np.float32)
        factors32 = [f.astype(np.float32) for f in factors64]
        for mode in range(3):
            ref = ttmc_matricized(tensor64, factors64, mode, kernel=kernel)
            got = ttmc_matricized(tensor32, factors32, mode, kernel=kernel)
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, ref, atol=1e-3)
            csf32 = CSFTensor(
                tensor32, mode_order=rooted_mode_order(self.SHAPE, mode)
            )
            got_csf = csf_ttmc_matricized(csf32, factors32, mode, kernel=kernel)
            assert got_csf.dtype == np.float32
            np.testing.assert_allclose(got_csf, ref, atol=1e-3)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bit_parity_on_exactly_representable_inputs(self, data):
        """On inputs where every product/sum is exact (small integers scaled
        by a power of two), the tiers must agree *bit for bit*: the fused
        loops only reassociate sums, and exact sums are associative."""
        shape = (5, 4, 3)
        nnz = data.draw(st.integers(min_value=1, max_value=12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        idx = np.unique(
            np.stack([rng.integers(0, s, nnz) for s in shape], axis=1), axis=0
        )
        scale = 2.0 ** data.draw(st.integers(-2, 2))
        values = rng.integers(-4, 5, idx.shape[0]).astype(np.float64) * scale
        tensor = SparseTensor(idx, values, shape)
        factors = [
            rng.integers(-3, 4, (s, 2)).astype(np.float64) for s in shape
        ]
        for mode in range(3):
            ref = ttmc_matricized(tensor, factors, mode)
            got = ttmc_matricized(tensor, factors, mode, kernel="numba")
            assert (got == ref).all()
            csf = CSFTensor(
                tensor, mode_order=rooted_mode_order(shape, mode)
            )
            ref_csf = csf_ttmc_matricized(csf, factors, mode)
            got_csf = csf_ttmc_matricized(csf, factors, mode, kernel="numba")
            assert (got_csf == ref_csf).all()


class TestAllocationContract:
    """Satellite of the kernel tier: warm-pool sweeps never allocate."""

    SHAPE = (10, 8, 6, 4)
    RANKS = (3, 2, 2, 2)

    @pytest.mark.parametrize("kernel", KERNEL_TIERS)
    def test_csf_sweep_zero_steady_state_allocations(self, kernel):
        tensor = make_tensor(self.SHAPE, 150, seed=10)
        factors = make_factors(self.SHAPE, self.RANKS, seed=11)
        trees = [
            CSFTensor(tensor, mode_order=rooted_mode_order(self.SHAPE, m))
            for m in range(4)
        ]
        pool = WorkspacePool()
        for _ in range(2):  # warm every (tag, shape, dtype) key
            for mode in range(4):
                csf_ttmc_compact(
                    trees[mode], factors, mode, workspace=pool, kernel=kernel
                )
        allocations = pool.allocations
        for _ in range(3):
            for mode in range(4):
                csf_ttmc_compact(
                    trees[mode], factors, mode, workspace=pool, kernel=kernel
                )
        assert pool.allocations == allocations
        assert pool.reuses > 0

    @pytest.mark.parametrize("kernel", KERNEL_TIERS)
    def test_float32_cast_buffer_is_pooled(self, kernel):
        """A float32 engine over float64 values casts into a pooled buffer."""
        tensor = make_tensor(self.SHAPE[:3], 80, seed=12)  # float64 values
        factors = make_factors(self.SHAPE[:3], self.RANKS[:3], seed=13,
                               dtype=np.float32)
        csf = CSFTensor(tensor, mode_order=rooted_mode_order(tensor.shape, 0))
        pool = WorkspacePool()
        for _ in range(2):
            csf_ttmc_compact(csf, factors, 0, workspace=pool, kernel=kernel)
        allocations = pool.allocations
        csf_ttmc_compact(csf, factors, 0, workspace=pool, kernel=kernel)
        assert pool.allocations == allocations


class TestEngineKernelAxis:
    def test_engine_parity_and_rejections(self):
        """Spot-check the engine axis (the conformance matrix is the full
        sweep): numba matches numpy through hooi(), and dimtree rejects."""
        from repro.core import HOOIOptions, hooi

        shape = (8, 6, 5)
        tensor = make_tensor(shape, 90, seed=14)
        base = hooi(
            tensor, (3, 2, 2),
            HOOIOptions(max_iterations=2, seed=0),
        )
        compiled = hooi(
            tensor, (3, 2, 2),
            HOOIOptions(max_iterations=2, seed=0, kernel="numba"),
        )
        np.testing.assert_allclose(
            compiled.fit_history, base.fit_history, atol=1e-10
        )
        with pytest.raises(ValueError, match="numba"):
            HOOIOptions(kernel="numba", ttmc_strategy="dimtree").validate()
