"""Compressed Sparse Fiber storage and its fiber-vectorized TTMc kernels."""

import numpy as np
import pytest

from repro.core import HOOIOptions, SparseTensor, hooi, ttmc_matricized
from repro.core.symbolic import symbolic_ttmc
from repro.core.ttmc import restrict_symbolic
from repro.engine import (
    CSFSlabPlan,
    HOOIEngine,
    InlineDispatcher,
    PlanBackend,
    ThreadDispatcher,
    WorkspacePool,
)
from repro.sparse import (
    CSFTensor,
    CSFTensorSet,
    csf_ttmc_compact,
    csf_ttmc_matricized,
    default_mode_order,
    rooted_mode_order,
)
from repro.util.linalg import random_orthonormal


def make_factors(shape, rank=3, seed=0):
    return [
        random_orthonormal(size, min(rank, size), seed=seed + 7 * n)
        for n, size in enumerate(shape)
    ]


def rooted(tensor, mode):
    """The tree that serves mode ``mode``: rooted there, the rest shortest-first."""
    return CSFTensor(tensor, mode_order=rooted_mode_order(tensor.shape, mode))


class TestModeOrders:
    def test_default_is_shortest_first(self):
        assert default_mode_order((50, 10, 30)) == (1, 2, 0)

    def test_default_breaks_ties_by_mode(self):
        assert default_mode_order((20, 20, 10)) == (2, 0, 1)

    def test_rooted_puts_root_first_rest_shortest(self):
        assert rooted_mode_order((50, 10, 30), 0) == (0, 1, 2)
        assert rooted_mode_order((50, 10, 30), 2) == (2, 1, 0)

    def test_rooted_rejects_bad_mode(self):
        with pytest.raises(Exception):
            rooted_mode_order((5, 5), 2)

    def test_bad_mode_order_rejected(self, small_tensor_3d):
        with pytest.raises(ValueError, match="permutation"):
            CSFTensor(small_tensor_3d, mode_order=(0, 1, 1))


class TestConstruction:
    def test_level_sizes_shrink_towards_root(self, small_tensor_3d):
        csf = CSFTensor(small_tensor_3d)
        sizes = [csf.num_fibers(level) for level in range(csf.order)]
        assert sizes[-1] == small_tensor_3d.nnz
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_root_fids_sorted_unique(self, small_tensor_3d):
        csf = CSFTensor(small_tensor_3d)
        roots = csf.fids[0]
        assert (np.diff(roots) > 0).all()

    def test_fptr_partitions_every_level(self, small_tensor_4d):
        csf = CSFTensor(small_tensor_4d)
        for level in range(csf.order - 1):
            fptr = csf.fptr[level]
            assert fptr[0] == 0
            assert fptr[-1] == csf.num_fibers(level + 1)
            assert (np.diff(fptr) >= 1).all()  # no empty fibers

    def test_target_rows_match_symbolic(self, small_tensor_3d):
        for mode in range(3):
            expected = symbolic_ttmc(small_tensor_3d, mode).rows
            np.testing.assert_array_equal(
                rooted(small_tensor_3d, mode).target_rows(mode), expected
            )

    def test_empty_tensor(self):
        csf = CSFTensor(SparseTensor.empty((4, 5, 6)))
        assert csf.nnz == 0
        assert all(csf.num_fibers(level) == 0 for level in range(3))
        assert csf.to_coo().nnz == 0

    def test_preserves_dtype(self, small_tensor_3d):
        csf = CSFTensor(small_tensor_3d.astype("float32"))
        assert csf.dtype == np.float32


class TestRoundTrip:
    def test_roundtrip_all_orders(self, small_tensor_3d, small_tensor_4d):
        for tensor in (small_tensor_3d, small_tensor_4d):
            for mode in range(tensor.order):
                order = rooted_mode_order(tensor.shape, mode)
                back = CSFTensor(tensor, mode_order=order).to_coo()
                assert back.shape == tensor.shape
                assert back.allclose(tensor, rtol=0, atol=0)

    def test_roundtrip_keeps_duplicates(self):
        indices = np.array([[1, 2], [1, 2], [0, 1]])
        values = np.array([1.0, 2.0, 3.0])
        tensor = SparseTensor(indices, values, (3, 4))
        csf = CSFTensor(tensor)
        assert csf.nnz == 3  # duplicates preserved structurally
        assert csf.to_coo().allclose(tensor)  # allclose deduplicates both

    def test_roundtrip_matrix(self):
        tensor = SparseTensor(
            np.array([[0, 3], [2, 1], [2, 3]]), np.array([1.0, -2.0, 0.5]), (3, 4)
        )
        back = CSFTensor(tensor, mode_order=(1, 0)).to_coo()
        np.testing.assert_allclose(back.to_dense(), tensor.to_dense())


class TestMemoryBytes:
    def test_coo_memory_bytes_exact(self):
        tensor = SparseTensor(
            np.array([[0, 1, 2], [1, 1, 0]]), np.array([1.0, 2.0]), (2, 3, 4)
        )
        assert tensor.memory_bytes() == 2 * 3 * 8 + 2 * 8

    def test_csf_memory_bytes_exact(self):
        # Two nonzeros sharing the root fiber: 1 + 2 + 2 fids, 2 + 3 fptr
        # entries, 2 values.
        tensor = SparseTensor(
            np.array([[0, 1, 2], [0, 1, 3]]), np.array([1.0, 2.0]), (2, 3, 4)
        )
        csf = CSFTensor(tensor, mode_order=(0, 1, 2))
        assert [len(f) for f in csf.fids] == [1, 1, 2]
        assert csf.memory_bytes() == (1 + 1 + 2) * 8 + (2 + 2) * 8 + 2 * 8

    def test_per_mode_set_counts_all_trees(self, small_tensor_3d):
        per_mode = CSFTensorSet.per_mode(small_tensor_3d)
        assert per_mode.memory_bytes() == sum(
            per_mode.tree_for(m).memory_bytes() for m in range(3)
        )


class TestTTMcParity:
    @pytest.mark.parametrize(
        "fixture, mode",
        [("small_tensor_3d", mode) for mode in range(3)]
        + [("small_tensor_4d", mode) for mode in range(4)],
    )
    def test_rooted_tree_matches_coo(self, request, fixture, mode):
        tensor = request.getfixturevalue(fixture)
        factors = make_factors(tensor.shape)
        expected = ttmc_matricized(tensor, factors, mode)
        result = csf_ttmc_matricized(rooted(tensor, mode), factors, mode)
        assert result.shape == expected.shape
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_tree_serves_only_its_root_mode(self, small_tensor_3d):
        """A mode below the root is rejected, with the way to a rooted tree."""
        factors = make_factors(small_tensor_3d.shape)
        csf = rooted(small_tensor_3d, 0)
        for mode in (1, 2):
            for call in (csf_ttmc_compact, csf_ttmc_matricized):
                with pytest.raises(ValueError, match="rooted_mode_order") as err:
                    call(csf, factors, mode)
                assert "CSFTensorSet.per_mode" in str(err.value)
            with pytest.raises(ValueError, match="root"):
                csf.target_rows(mode)

    def test_distinct_ranks_column_order(self, small_tensor_4d):
        """Unequal ranks catch any column-permutation mistake."""
        rng = np.random.default_rng(5)
        factors = [
            rng.standard_normal((size, rank))
            for size, rank in zip(small_tensor_4d.shape, (2, 3, 4, 5))
        ]
        for mode in range(4):
            expected = ttmc_matricized(small_tensor_4d, factors, mode)
            np.testing.assert_allclose(
                csf_ttmc_matricized(rooted(small_tensor_4d, mode), factors, mode),
                expected, atol=1e-10,
            )

    def test_threaded_slabs_match(self, small_tensor_4d):
        factors = make_factors(small_tensor_4d.shape)
        plan = CSFSlabPlan(CSFTensorSet.per_mode(small_tensor_4d))
        threads = ThreadDispatcher(3)
        for mode in range(4):
            expected = ttmc_matricized(small_tensor_4d, factors, mode)
            np.testing.assert_allclose(
                threads.ttmc(plan, mode, factors), expected[plan.rows(mode)],
                atol=1e-10,
            )

    def test_float32_stays_float32(self, small_tensor_3d):
        tensor = small_tensor_3d.astype("float32")
        factors = [np.asarray(f, dtype=np.float32) for f in make_factors(tensor.shape)]
        result = csf_ttmc_matricized(rooted(tensor, 0), factors, 0)
        expected = ttmc_matricized(tensor, factors, 0)
        assert result.dtype == np.float32
        np.testing.assert_allclose(result, expected, atol=1e-3)

    def test_mixed_dtype_promotes(self, small_tensor_3d):
        tensor = small_tensor_3d.astype("float32")
        factors = make_factors(tensor.shape)  # float64
        assert csf_ttmc_matricized(rooted(tensor, 1), factors, 1).dtype == np.float64

    def test_out_and_zero_policies(self, small_tensor_3d):
        """A given ``out`` is zeroed before the rows land; its shape is checked."""
        factors = make_factors(small_tensor_3d.shape)
        csf = rooted(small_tensor_3d, 0)
        expected = ttmc_matricized(small_tensor_3d, factors, 0)
        out = np.full_like(expected, 7.0)
        result = csf_ttmc_matricized(csf, factors, 0, out=out)
        assert result is out
        np.testing.assert_allclose(out, expected, atol=1e-10)
        with pytest.raises(ValueError, match="shape"):
            csf_ttmc_matricized(csf, factors, 0, out=out[:, :-1])

    def test_compact_form(self, small_tensor_3d):
        factors = make_factors(small_tensor_3d.shape)
        rows, block = csf_ttmc_compact(rooted(small_tensor_3d, 1), factors, 1)
        expected = ttmc_matricized(small_tensor_3d, factors, 1)
        np.testing.assert_array_equal(rows, symbolic_ttmc(small_tensor_3d, 1).rows)
        np.testing.assert_allclose(block, expected[rows], atol=1e-10)

    def test_empty_tensor_ttmc(self):
        tensor = SparseTensor.empty((4, 5, 6))
        factors = make_factors(tensor.shape, rank=2)
        result = csf_ttmc_matricized(CSFTensor(tensor), factors, 0)
        assert result.shape == (4, 2 * 2)
        assert not result.any()

    def test_workspace_steady_state(self, small_tensor_3d):
        factors = make_factors(small_tensor_3d.shape)
        csf = rooted(small_tensor_3d, 0)
        pool = WorkspacePool()
        csf_ttmc_matricized(csf, factors, 0, workspace=pool)
        allocations = pool.allocations
        csf_ttmc_matricized(csf, factors, 0, workspace=pool)
        assert pool.allocations == allocations

    def test_workspace_reused_across_tree_rebuilds(self, small_tensor_3d):
        """A shared pool must not grow when trees are rebuilt per run.

        The engine rebuilds its CSFTensorSet in every ``prepare``, so the
        scratch tags are keyed by mode order (not tree identity): a fresh
        tree with the same ordering must hit the pooled buffers of the
        previous run.
        """
        factors = make_factors(small_tensor_3d.shape)
        pool = WorkspacePool()
        csf_ttmc_matricized(rooted(small_tensor_3d, 0), factors, 0, workspace=pool)
        allocations = pool.allocations
        buffers = pool.num_buffers
        csf_ttmc_matricized(rooted(small_tensor_3d, 0), factors, 0, workspace=pool)
        assert pool.allocations == allocations
        assert pool.num_buffers == buffers

    def test_engine_reruns_share_workspace(self, small_tensor_3d):
        """Back-to-back hooi runs on one pool: zero second-run allocations."""
        pool = WorkspacePool()
        opts = HOOIOptions(max_iterations=2, seed=0, tensor_format="csf")
        hooi(small_tensor_3d, (3, 3, 2), opts, workspace=pool)
        allocations = pool.allocations
        hooi(small_tensor_3d, (3, 3, 2), opts, workspace=pool)
        assert pool.allocations == allocations


class TestCSFBackends:
    RANKS = (3, 3, 2)

    def run(self, tensor, backend, **options):
        opts = HOOIOptions(max_iterations=3, seed=0, **options)
        return HOOIEngine(tensor, self.RANKS, opts, backend=backend).run()

    def test_sequential_backend_parity(self, small_tensor_3d):
        reference = hooi(
            small_tensor_3d, self.RANKS, HOOIOptions(max_iterations=3, seed=0)
        )
        result = self.run(small_tensor_3d, PlanBackend(CSFSlabPlan))
        np.testing.assert_allclose(
            result.fit_history, reference.fit_history, atol=1e-10
        )
        for ours, ref in zip(
            result.decomposition.factors, reference.decomposition.factors
        ):
            np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_threaded_backend_parity(self, small_tensor_3d):
        reference = hooi(
            small_tensor_3d, self.RANKS, HOOIOptions(max_iterations=3, seed=0)
        )
        backend = PlanBackend(
            CSFSlabPlan, ThreadDispatcher(2)
        )
        result = self.run(small_tensor_3d, backend)
        np.testing.assert_allclose(
            result.fit_history, reference.fit_history, atol=1e-10
        )

    def test_subset_trees_compute_their_rows(self, small_tensor_3d, factors_3d):
        """Trees over some rows' nonzeros (a distributed rank's) give those rows."""
        lists = {}
        for mode in range(small_tensor_3d.order):
            sym = symbolic_ttmc(small_tensor_3d, mode)
            lists[mode] = restrict_symbolic(sym, np.arange(0, sym.num_rows, 2))
        trees = CSFTensorSet.per_mode(
            small_tensor_3d, num_threads=2,
            subsets={mode: sym.perm for mode, sym in lists.items()},
        )
        plan = CSFSlabPlan(trees)
        for mode, sym in lists.items():
            assert np.array_equal(plan.rows(mode), sym.rows)
            assert trees.tree_for(mode).nnz == sym.nnz
            block = InlineDispatcher().ttmc(plan, mode, factors_3d)
            full = ttmc_matricized(small_tensor_3d, factors_3d, mode)
            np.testing.assert_allclose(block, full[sym.rows], atol=1e-10)

    def test_empty_subset_tree(self, small_tensor_3d, factors_3d):
        """A mode whose computed rows hold no nonzeros: empty tree, 0-row block."""
        everything = np.arange(small_tensor_3d.nnz)
        subsets = {0: np.empty(0, dtype=np.int64), 1: everything, 2: everything}
        plan = CSFSlabPlan(CSFTensorSet.per_mode(small_tensor_3d, subsets=subsets))
        assert plan.items(0) == 0
        block = InlineDispatcher().ttmc(plan, 0, factors_3d)
        assert block.shape == (0, 4 * 3)
