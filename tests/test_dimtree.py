"""Dimension-tree TTMc tests.

Covers the tentpole contract of the dimtree backend:

* tree construction for orders 3..6 — leaf/internal mode sets partition
  correctly and node fibers are exactly the distinct index tuples;
* the subset kernels (fiber grouping, edge updates) against explicit
  references;
* cache invalidation — after refreshing a factor, exactly the root-to-leaf
  path of that mode stays fresh, a steady HOOI sweep recomputes each
  non-root node once, and pooled node buffers stop allocating after warm-up;
* numeric equivalence of ``dimtree`` vs ``per-mode`` TTMc results and final
  HOOI fits on random and structured low-rank tensors in both dtypes
  (float64 to 1e-10; float32 to 1e-10 on exactly-representable data, where
  both strategies are bitwise-exact, and to machine-eps scale on random
  data, where summation order legitimately differs);
* the ``HOOIOptions.ttmc_strategy`` plumbing on the sequential and threaded
  drivers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import decompose
from repro.core import (
    HOOIOptions,
    SparseTensor,
    edge_update_groups,
    group_fibers,
    hooi,
    kron_rows,
    subset_widths,
    ttmc_matricized,
)
from repro.core.subset_ttmc import group_fibers_presorted
from repro.data import planted_lowrank_tensor
from repro.engine import (
    DimensionTree,
    HOOIEngine,
    PlanBackend,
    ThreadDispatcher,
    WorkspacePool,
    resolve_ttmc_backend,
)
from repro.sparse import CSFTensor
from repro.util.linalg import random_orthonormal


def _random_tensor(shape, nnz, seed) -> SparseTensor:
    rng = np.random.default_rng(seed)
    indices = np.column_stack(
        [rng.integers(0, s, size=nnz, dtype=np.int64) for s in shape]
    )
    values = rng.standard_normal(nnz)
    return SparseTensor(indices, values, shape, sum_duplicates=True)


def _factors(shape, ranks, seed=0):
    return [
        random_orthonormal(s, r, seed=seed + 31 * i)
        for i, (s, r) in enumerate(zip(shape, ranks))
    ]


_SHAPES = {
    3: ((12, 10, 9), (4, 3, 3)),
    4: ((10, 9, 8, 7), (3, 3, 2, 2)),
    5: ((8, 7, 6, 5, 4), (2, 2, 2, 2, 2)),
    6: ((6, 6, 5, 5, 4, 4), (2, 2, 2, 2, 2, 2)),
}


class TestTreeConstruction:
    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_mode_sets_partition(self, order):
        shape, _ = _SHAPES[order]
        tree = DimensionTree(_random_tensor(shape, 200, seed=order))
        assert tree.root.modes == tuple(range(order))
        assert [leaf.modes for leaf in tree.leaves] == [
            (n,) for n in range(order)
        ]
        for node in tree.nodes:
            if node.is_leaf:
                assert node.left is None and node.right is None
                continue
            left, right = node.left, node.right
            assert left.modes + right.modes == node.modes
            assert left.sibling_modes == right.modes
            assert right.sibling_modes == left.modes

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_node_fibers_are_distinct_index_tuples(self, order):
        shape, _ = _SHAPES[order]
        tensor = _random_tensor(shape, 200, seed=10 + order)
        tree = DimensionTree(tensor)
        for node in tree.nodes:
            expected = np.unique(tensor.indices[:, list(node.modes)], axis=0)
            if node is tree.root:
                # The root keeps one fiber per nonzero (no merging needed).
                assert node.num_fibers == tensor.nnz
            else:
                assert np.array_equal(
                    np.unique(node.index_cols, axis=0), expected
                )
                assert node.num_fibers == expected.shape[0]

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_root_order_per_source(self, order):
        """``coo`` keeps the tensor's order; ``csf`` holds the leaves of a CSF
        tree with the identity mode order, in that tree's order."""
        shape, _ = _SHAPES[order]
        tensor = _random_tensor(shape, 200, seed=20 + order)
        coo = DimensionTree(tensor, source="coo")
        assert np.array_equal(coo.root.index_cols, tensor.indices)
        assert np.array_equal(coo._values, tensor.values)
        leaves = CSFTensor(tensor, mode_order=tuple(range(order))).to_coo()
        assert not np.array_equal(leaves.indices, tensor.indices)
        csf = DimensionTree(tensor, source="csf")
        assert np.array_equal(csf.root.index_cols, leaves.indices)
        assert np.array_equal(csf._values, leaves.values)

    def test_path_walks_root_to_leaf(self):
        shape, _ = _SHAPES[5]
        tree = DimensionTree(_random_tensor(shape, 150, seed=3))
        for mode in range(5):
            path = tree.path(mode)
            assert path[0] is tree.root
            assert path[-1] is tree.leaves[mode]
            for above, below in zip(path, path[1:]):
                assert below.parent is above
                assert mode in below.modes

    def test_order_one_rejected(self):
        tensor = SparseTensor(
            np.arange(5, dtype=np.int64).reshape(-1, 1), np.ones(5), (5,)
        )
        with pytest.raises(ValueError, match="order >= 2"):
            DimensionTree(tensor)


class TestSubsetKernels:
    def test_group_fibers_matches_unique(self):
        rng = np.random.default_rng(0)
        cols = rng.integers(0, 4, size=(60, 2))
        grouping = group_fibers(cols)
        uniq, counts = np.unique(cols, axis=0, return_counts=True)
        assert np.array_equal(grouping.indices, uniq)
        assert np.array_equal(grouping.group_sizes(), counts)
        for g in range(grouping.num_groups):
            members = grouping.perm[grouping.segptr[g] : grouping.segptr[g + 1]]
            assert np.array_equal(
                cols[members], np.tile(uniq[g], (len(members), 1))
            )

    def test_subset_widths(self):
        assert subset_widths((2, 3, 4, 5), 1, 2) == (2, 5)
        assert subset_widths((2, 3, 4, 5), 0, 3) == (1, 1)
        assert subset_widths((2, None, None, 5), 1, 2) == (2, 5)


#: Edge shapes: (payload low width, payload high width, sibling ranks).
#: Width-1 payloads are root edges; only trees of order >= 6 have edges
#: with both payload blocks wider than 1.
_EDGE_CASES = {
    "root-one-sibling": (1, 1, (3,)),
    "root-two-siblings": (1, 1, (3, 2)),
    "hi-width-1": (6, 1, (4,)),
    "lo-width-1": (1, 5, (3, 2)),
    "both-wide": (3, 2, (4,)),
    "both-wide-wider-sibling": (2, 2, (3, 3)),
}


def _edge_problem(case, contiguous, dtype="float64", seed=0):
    """A parent node of 80 fibers over (group, sibling...) columns.

    Group 2 holds 15 of the fibers, so a small block cap (``block_cap``)
    splits it over several blocks.  Contiguous groupings come from
    lex-sorted parents (:func:`group_fibers_presorted`), permuted ones from
    a sort.
    """
    lo, hi, sib_ranks = _EDGE_CASES[case]
    rng = np.random.default_rng(seed)
    m = 80
    group_col = np.concatenate([np.full(15, 2), rng.integers(0, 9, m - 15)])
    cols = np.column_stack(
        [group_col] + [rng.integers(0, 7, m) for _ in sib_ranks]
    )
    if contiguous:
        cols = cols[np.lexsort(cols[:, ::-1].T)]
        grouping = group_fibers_presorted(cols[:, :1])
    else:
        cols = cols[rng.permutation(m)]
        grouping = group_fibers(cols[:, :1])
    low = rng.standard_normal((m, lo)).astype(dtype)
    high = rng.standard_normal((m, hi)).astype(dtype)
    factors = [rng.standard_normal((7, r)).astype(dtype) for r in sib_ranks]
    payload = np.stack([kron_rows([a, b]) for a, b in zip(low, high)])
    return grouping, cols, low, high, payload, factors


def _edge_reference(grouping, start, stop, cols, low, high, factors):
    """Loop reference: per group, Σ kron(low, sibling rows, high) of its parents."""
    rows = []
    for g in range(start, stop):
        parents = grouping.perm[grouping.segptr[g]:grouping.segptr[g + 1]]
        rows.append(sum(
            kron_rows(
                [low[p]]
                + [f[cols[p, 1 + i]] for i, f in enumerate(factors)]
                + [high[p]]
            )
            for p in parents
        ))
    return np.array(rows)


def _edge_update(grouping, start, stop, cols, payload, factors, lo, hi):
    width = lo * hi * int(np.prod([f.shape[1] for f in factors]))
    # NaN-filled, so a row the update leaves unassigned shows up.
    out = np.full((stop - start, width), np.nan, dtype=payload.dtype)
    return edge_update_groups(
        grouping, start, stop, payload, cols,
        list(range(1, 1 + len(factors))), factors, lo, hi, out,
    )


class TestEdgeUpdate:
    """``edge_update_groups`` against a Python-loop Kronecker reference."""

    @pytest.mark.parametrize("contiguous", [True, False],
                             ids=["contiguous", "permuted"])
    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    def test_matches_loop_reference(self, case, contiguous):
        grouping, cols, low, high, payload, factors = _edge_problem(
            case, contiguous
        )
        lo, hi, _ = _EDGE_CASES[case]
        got = _edge_update(
            grouping, 0, grouping.num_groups, cols, payload, factors, lo, hi
        )
        expected = _edge_reference(
            grouping, 0, grouping.num_groups, cols, low, high, factors
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("contiguous", [True, False],
                             ids=["contiguous", "permuted"])
    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    def test_group_split_over_blocks_in_a_sub_range(
        self, case, contiguous, block_cap
    ):
        grouping, cols, low, high, payload, factors = _edge_problem(
            case, contiguous, seed=1
        )
        lo, hi, _ = _EDGE_CASES[case]
        start, stop = 1, grouping.num_groups - 1
        # Group 2 (15 fibers) spans three capped blocks.
        assert grouping.group_sizes()[2] > 2 * block_cap
        got = _edge_update(grouping, start, stop, cols, payload, factors, lo, hi)
        expected = _edge_reference(
            grouping, start, stop, cols, low, high, factors
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    @pytest.mark.usefixtures("block_cap")
    def test_float32_stays_float32(self, case):
        grouping, cols, low, high, payload, factors = _edge_problem(
            case, contiguous=False, dtype="float32", seed=2
        )
        lo, hi, _ = _EDGE_CASES[case]
        got = _edge_update(
            grouping, 0, grouping.num_groups, cols, payload, factors, lo, hi
        )
        expected = _edge_reference(
            grouping, 0, grouping.num_groups, cols,
            low.astype(np.float64), high.astype(np.float64),
            [f.astype(np.float64) for f in factors],
        )
        assert got.dtype == np.float32
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-5 * scale


class TestCacheInvalidation:
    @pytest.fixture
    def tensor(self):
        shape, _ = _SHAPES[4]
        return _random_tensor(shape, 300, seed=21)

    @pytest.fixture
    def factors(self, tensor):
        _, ranks = _SHAPES[4]
        return _factors(tensor.shape, ranks)

    def test_fresh_set_is_root_to_leaf_path(self, tensor, factors):
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors)
        assert set(map(id, tree.fresh_nodes())) == set(map(id, tree.nodes))
        for mode in range(tensor.order):
            tree.invalidate_factor(mode)
            fresh = tree.fresh_nodes()
            assert set(map(id, fresh)) == set(map(id, tree.path(mode)))
            # Recompute everything before checking the next mode.
            for m in range(tensor.order):
                tree.leaf_matricized(m, factors)

    def test_steady_sweep_recomputes_each_node_once(self, tensor, factors):
        tree = DimensionTree(tensor)
        for _ in range(3):
            before = tree.edge_updates
            for mode in range(tensor.order):
                tree.leaf_matricized(mode, factors)
                tree.invalidate_factor(mode)
            assert tree.edge_updates - before == len(tree.nodes) - 1

    def test_no_recompute_while_factors_unchanged(self, tensor, factors):
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors)
        before = tree.edge_updates
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors)
        assert tree.edge_updates == before

    def test_pooled_node_buffers_stop_allocating(self, tensor, factors):
        tree = DimensionTree(tensor)
        pool = WorkspacePool()
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors, workspace=pool)
            tree.invalidate_factor(mode)
        warm = pool.allocations
        for _ in range(2):
            for mode in range(tensor.order):
                tree.leaf_matricized(mode, factors, workspace=pool)
                tree.invalidate_factor(mode)
        assert pool.allocations == warm
        assert pool.reuses > 0


class TestEquivalence:
    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_ttmc_matches_per_mode_float64(self, order):
        shape, ranks = _SHAPES[order]
        tensor = _random_tensor(shape, 350, seed=40 + order)
        factors = _factors(shape, ranks)
        tree = DimensionTree(tensor)
        for mode in range(order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors)
            assert got.shape == expected.shape
            assert np.allclose(got, expected, atol=1e-10)

    def test_ttmc_matches_on_structured_lowrank(self):
        tensor, _ = planted_lowrank_tensor(
            (14, 12, 10, 8), (3, 2, 2, 2), 1200, seed=9
        )
        factors = _factors(tensor.shape, (3, 3, 2, 2), seed=5)
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors)
            assert np.allclose(got, expected, atol=1e-10)

    def test_ttmc_float32_exact_on_representable_data(self):
        # Values and factor entries are small dyadic rationals, so every
        # product is an integer multiple of 2^-12 far below 2^24 and every
        # partial sum is exact in float32 regardless of association: the two
        # strategies must agree to 1e-10 (in fact bitwise).
        rng = np.random.default_rng(17)
        shape = (12, 10, 9, 8)
        indices = np.column_stack(
            [rng.integers(0, s, size=300, dtype=np.int64) for s in shape]
        )
        values = rng.choice([-2.0, -1.0, 1.0, 2.0], size=300)
        tensor = SparseTensor(
            indices, values, shape, sum_duplicates=True, dtype="float32"
        )
        factors = [
            (rng.integers(-4, 5, size=(s, 3)) / 16.0).astype(np.float32)
            for s in shape
        ]
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors)
            assert got.dtype == np.float32
            assert np.abs(got - expected).max() <= 1e-10

    def test_ttmc_float32_random_within_eps(self):
        shape, ranks = _SHAPES[4]
        tensor = _random_tensor(shape, 350, seed=51).astype(np.float32)
        factors = [
            f.astype(np.float32) for f in _factors(shape, ranks, seed=3)
        ]
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors)
            assert got.dtype == np.float32
            # Summation order differs between the strategies; agreement is
            # bounded by float32 machine epsilon, not 1e-10.
            assert np.allclose(got, expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_hooi_fit_matches_per_mode(self, dtype):
        tensor, _ = planted_lowrank_tensor((24, 20, 16, 12), (3, 3, 2, 2), 2500, seed=2)
        options = dict(max_iterations=4, init="hosvd", seed=0, dtype=dtype)
        per_mode = hooi(tensor, (3, 3, 2, 2), HOOIOptions(**options))
        dimtree = hooi(
            tensor, (3, 3, 2, 2),
            HOOIOptions(ttmc_strategy="dimtree", **options),
        )
        tol = 1e-10 if dtype == "float64" else 1e-4
        assert np.allclose(
            per_mode.fit_history, dimtree.fit_history, atol=tol
        )

    def test_hooi_fit_matches_on_random_tensor(self):
        tensor = _random_tensor((30, 24, 18), 2500, seed=8)
        options = dict(max_iterations=4, seed=0)
        per_mode = hooi(tensor, (4, 4, 3), HOOIOptions(**options))
        dimtree = hooi(
            tensor, (4, 4, 3), HOOIOptions(ttmc_strategy="dimtree", **options)
        )
        assert np.allclose(
            per_mode.fit_history, dimtree.fit_history, atol=1e-10
        )

    def test_threaded_dimtree_matches_sequential(self):
        shape, ranks = _SHAPES[4]
        tensor = _random_tensor(shape, 400, seed=61)
        factors = _factors(shape, ranks, seed=7)
        tree = DimensionTree(tensor)
        threads = ThreadDispatcher(3)
        for mode in range(tensor.order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = threads.ttmc(tree, mode, factors)
            assert np.allclose(got, expected[tree.rows(mode)], atol=1e-10)


def _rank_blocks(tensor, factors, parts):
    """Each coarse-grain rank's dimension-tree TTMc blocks at fixed factors."""
    from repro.distributed import build_plans
    from repro.distributed.dist_hooi import DistributedBackend
    from repro.partition import make_partition
    from repro.simmpi import run_spmd

    ranks = tuple(f.shape[1] for f in factors)
    partition = make_partition(tensor, parts, "coarse-bl")
    global_plan, plans = build_plans(tensor, partition, ranks)
    options = HOOIOptions(ttmc_strategy="dimtree")

    def program(comm):
        plan = plans[comm.rank]
        backend = DistributedBackend(comm, plan, global_plan, factors)
        eng = HOOIEngine(plan.local_tensor, ranks, options, backend=backend)
        eng.factors = list(factors)
        backend.prepare(eng)
        blocks = [
            backend.compute_ttmc(eng, mode).copy() for mode in range(tensor.order)
        ]
        return plan, backend, blocks

    return run_spmd(program, parts).values


class TestCoarseRankRows:
    """A coarse-grain rank's tree leaves hold every local row; it keeps ``K_n``'s."""

    @pytest.mark.parametrize("order", [3, 4])
    def test_blocks_are_the_computed_rows(self, order):
        shape, ranks = _SHAPES[order]
        tensor = _random_tensor(shape, 300, seed=17)
        factors = _factors(shape, ranks, seed=3)
        picked = 0
        for plan, backend, blocks in _rank_blocks(tensor, factors, 3):
            leaves = backend.local_backend.plan
            for mode, block in enumerate(blocks):
                mp = plan.modes[mode]
                rows = backend.compute_block_rows[mode]
                assert np.array_equal(
                    rows, np.intersect1d(mp.owned_rows, mp.local_rows)
                )
                full = ttmc_matricized(plan.local_tensor, factors, mode)
                assert np.allclose(block, full[rows], atol=1e-12)
                picked += rows.size < leaves.rows(mode).size
        assert picked

    def test_rank_without_computed_rows(self):
        """A rank whose owned slices of a mode are empty gets a 0-row block."""
        rng = np.random.default_rng(0)
        indices = np.column_stack([rng.integers(0, 4, 120) for _ in range(3)])
        tensor = SparseTensor(
            indices, rng.standard_normal(120), (12, 10, 8), sum_duplicates=True
        )
        factors = _factors(tensor.shape, (2, 2, 2), seed=0)
        empty = 0
        for plan, backend, blocks in _rank_blocks(tensor, factors, 3):
            for mode, block in enumerate(blocks):
                assert block.shape == (backend.compute_block_rows[mode].size, 4)
                empty += plan.local_tensor.nnz > 0 and block.shape[0] == 0
        assert empty


class TestStrategyPlumbing:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="ttmc_strategy"):
            resolve_ttmc_backend(HOOIOptions(ttmc_strategy="magic"))
        tensor = _random_tensor((8, 7, 6), 100, seed=1)
        with pytest.raises(ValueError, match="ttmc_strategy"):
            hooi(tensor, 2, HOOIOptions(ttmc_strategy="magic"))

    def test_distributed_driver_runs_rank_local_dimtrees(self):
        # Since the hybrid-grain work the distributed driver composes with
        # the dimension tree: each rank builds a rank-local tree and keeps
        # the rows it computes of each leaf, matching per-mode to 1e-10.
        from repro.distributed import distributed_hooi
        from repro.partition import make_partition

        tensor = _random_tensor((12, 10, 8), 300, seed=5)
        partition = make_partition(tensor, 2, "coarse-bl")
        per_mode = distributed_hooi(
            tensor, 2, partition, HOOIOptions(max_iterations=2, seed=0)
        )
        dimtree = distributed_hooi(
            tensor, 2, partition,
            HOOIOptions(max_iterations=2, seed=0, ttmc_strategy="dimtree"),
        )
        assert np.allclose(
            dimtree.fit_history, per_mode.fit_history, atol=1e-10
        )

    def test_threaded_dimtree_matches_per_mode(self, medium_tensor_3d):
        options = dict(max_iterations=3, init="hosvd", seed=0,
                       execution="thread", num_workers=2)
        per_mode = decompose(medium_tensor_3d, 5, **options)
        dimtree = decompose(
            medium_tensor_3d, 5, ttmc_strategy="dimtree", **options
        )
        assert dimtree.fit_history == pytest.approx(
            per_mode.fit_history, abs=1e-10
        )

    def test_engine_with_dimtree_backend_directly(self, small_tensor_4d):
        options = HOOIOptions(max_iterations=3, seed=0)
        seq = HOOIEngine(
            small_tensor_4d, (3, 3, 2, 2), options, backend=PlanBackend()
        ).run()
        dt = HOOIEngine(
            small_tensor_4d, (3, 3, 2, 2), options,
            backend=PlanBackend(DimensionTree),
        ).run()
        assert np.allclose(seq.fit_history, dt.fit_history, atol=1e-10)
        for a, b in zip(seq.decomposition.factors, dt.decomposition.factors):
            assert np.allclose(np.abs(a), np.abs(b), atol=1e-8)
