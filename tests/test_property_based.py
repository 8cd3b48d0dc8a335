"""Property-based tests (hypothesis) on the core data structures and invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    HOOIOptions,
    SparseTensor,
    batch_kron_rows,
    dense_ttm_chain,
    fold,
    hooi,
    kron_rows,
    symbolic_ttmc,
    ttmc_matricized,
    unfold,
)
from repro.core.trsvd import lanczos_svd
from repro.data import planted_lowrank_tensor
from repro.distributed import build_plans
from repro.engine.dimtree import DimensionTree
from repro.sparse import CSFTensor, csf_ttmc_matricized
from repro.partition import (
    Hypergraph,
    connectivity_cutsize,
    make_partition,
    partition_hypergraph,
)
from repro.partition.multilevel import PartitionerOptions

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def sparse_tensors(draw, max_order=4, max_dim=12, max_nnz=60):
    order = draw(st.integers(min_value=2, max_value=max_order))
    shape = tuple(
        draw(st.integers(min_value=2, max_value=max_dim)) for _ in range(order)
    )
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if nnz == 0:
        return SparseTensor.empty(shape)
    indices = np.column_stack([rng.integers(0, s, nnz) for s in shape])
    values = rng.standard_normal(nnz)
    return SparseTensor(indices, values, shape, sum_duplicates=True)


class TestSparseTensorProperties:
    @SETTINGS
    @given(sparse_tensors())
    def test_dense_roundtrip(self, tensor):
        assert SparseTensor.from_dense(tensor.to_dense()).allclose(tensor)

    @SETTINGS
    @given(sparse_tensors())
    def test_norm_matches_dense(self, tensor):
        assert np.isclose(tensor.norm(), np.linalg.norm(tensor.to_dense().ravel()))

    @SETTINGS
    @given(sparse_tensors(), st.integers(min_value=0, max_value=3))
    def test_matricize_matches_dense_unfold(self, tensor, mode_raw):
        mode = mode_raw % tensor.order
        assert np.allclose(
            tensor.matricize(mode).toarray(), unfold(tensor.to_dense(), mode)
        )

    @SETTINGS
    @given(sparse_tensors())
    def test_deduplicate_idempotent(self, tensor):
        once = tensor.deduplicate()
        twice = once.deduplicate()
        assert once.nnz == twice.nnz
        assert once.allclose(twice)

    @SETTINGS
    @given(sparse_tensors(), st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_scale_linearity(self, tensor, alpha):
        assert np.allclose(tensor.scale(alpha).to_dense(), alpha * tensor.to_dense())

    @SETTINGS
    @given(sparse_tensors())
    def test_mode_counts_sum_to_nnz(self, tensor):
        for mode in range(tensor.order):
            assert tensor.mode_counts(mode).sum() == tensor.nnz


class TestUnfoldProperties:
    @SETTINGS
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=6),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_fold_inverts_unfold(self, array, mode_raw):
        mode = mode_raw % array.ndim
        assert np.allclose(fold(unfold(array, mode), mode, array.shape), array)

    @SETTINGS
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=6),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        st.integers(min_value=0, max_value=2),
    )
    def test_unfold_preserves_norm(self, array, mode_raw):
        mode = mode_raw % array.ndim
        assert np.isclose(np.linalg.norm(unfold(array, mode)), np.linalg.norm(array))


class TestKronProperties:
    @SETTINGS
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_kron_norm_multiplicative(self, seed, la, lb):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(la), rng.standard_normal(lb)
        assert np.isclose(
            np.linalg.norm(kron_rows([a, b])),
            np.linalg.norm(a) * np.linalg.norm(b),
        )

    @SETTINGS
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 4),
           st.integers(1, 4))
    def test_batch_consistent_with_single(self, seed, m, la, lb):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, la))
        b = rng.standard_normal((m, lb))
        batch = batch_kron_rows([a, b])
        for p in range(m):
            assert np.allclose(batch[p], kron_rows([a[p], b[p]]))


class TestTTMcProperties:
    @SETTINGS
    @given(sparse_tensors(max_order=3, max_dim=10, max_nnz=40),
           st.integers(min_value=0, max_value=2),
           st.integers(0, 2**31 - 1))
    def test_ttmc_matches_dense(self, tensor, mode_raw, seed):
        mode = mode_raw % tensor.order
        rng = np.random.default_rng(seed)
        factors = [
            np.linalg.qr(rng.standard_normal((s, min(2, s))))[0] for s in tensor.shape
        ]
        ours = ttmc_matricized(tensor, factors, mode)
        expected = unfold(
            dense_ttm_chain(tensor.to_dense(), factors, skip=mode, transpose=True),
            mode,
        )
        assert np.allclose(ours, expected, atol=1e-10)

    @SETTINGS
    @given(sparse_tensors(max_order=3, max_dim=10, max_nnz=40),
           st.integers(0, 2**31 - 1))
    def test_ttmc_linear_in_tensor_values(self, tensor, seed):
        if tensor.nnz == 0:
            return
        rng = np.random.default_rng(seed)
        factors = [
            np.linalg.qr(rng.standard_normal((s, min(2, s))))[0] for s in tensor.shape
        ]
        doubled = SparseTensor(tensor.indices, 2.0 * tensor.values, tensor.shape)
        assert np.allclose(
            ttmc_matricized(doubled, factors, 0),
            2.0 * ttmc_matricized(tensor, factors, 0),
        )

    @SETTINGS
    @given(sparse_tensors(max_order=4, max_dim=10, max_nnz=50),
           st.integers(min_value=0, max_value=3))
    def test_symbolic_invariants(self, tensor, mode_raw):
        mode = mode_raw % tensor.order
        sym = symbolic_ttmc(tensor, mode)
        assert sym.rowptr[0] == 0
        assert sym.rowptr[-1] == tensor.nnz
        assert np.all(np.diff(sym.rowptr) >= 1) or sym.num_rows == 0
        assert sym.row_sizes().sum() == tensor.nnz


class TestCSFProperties:
    """The CSF tree is a lossless re-encoding: round-trips exactly in every
    mode ordering, and its TTMc agrees with the COO kernel for every mode
    at the root, whatever the order of the levels below."""

    @SETTINGS
    @given(sparse_tensors(max_order=4, max_dim=10, max_nnz=50),
           st.integers(0, 2**31 - 1))
    def test_coo_csf_coo_roundtrip(self, tensor, seed):
        rng = np.random.default_rng(seed)
        mode_order = tuple(rng.permutation(tensor.order).tolist())
        back = CSFTensor(tensor, mode_order=mode_order).to_coo()
        assert back.shape == tensor.shape
        assert back.nnz == tensor.nnz
        # No arithmetic happens, so the round-trip is bit-exact.
        assert back.allclose(tensor, rtol=0.0, atol=0.0)

    @SETTINGS
    @given(sparse_tensors(max_order=4, max_dim=10, max_nnz=50),
           st.integers(0, 2**31 - 1))
    def test_ttmc_parity_every_mode(self, tensor, seed):
        rng = np.random.default_rng(seed)
        factors = [
            rng.standard_normal((s, int(rng.integers(1, min(3, s) + 1))))
            for s in tensor.shape
        ]
        for mode in range(tensor.order):
            # A tree serves its root mode; the levels below it come in a
            # random order.
            below = [int(m) for m in rng.permutation(tensor.order) if m != mode]
            csf = CSFTensor(tensor, mode_order=(mode, *below))
            expected = ttmc_matricized(tensor, factors, mode)
            result = csf_ttmc_matricized(csf, factors, mode)
            assert result.shape == expected.shape
            assert np.allclose(result, expected, atol=1e-10)

    @SETTINGS
    @given(sparse_tensors(max_order=4, max_dim=10, max_nnz=50))
    def test_fiber_counts_monotone_and_conservative(self, tensor):
        csf = CSFTensor(tensor)
        sizes = [csf.num_fibers(level) for level in range(csf.order)]
        assert sizes[-1] == tensor.nnz
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        for level in range(csf.order - 1):
            assert csf.fptr[level][-1] == sizes[level + 1]


class TestLanczosProperties:
    @SETTINGS
    @given(st.integers(0, 2**31 - 1), st.integers(6, 20), st.integers(3, 8),
           st.integers(1, 3))
    def test_singular_values_match_numpy(self, seed, m, n, k):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        k = min(k, min(m, n))
        result = lanczos_svd(a, k, seed=0)
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(np.sort(result.singular_values)[::-1], s[:k],
                           rtol=1e-5, atol=1e-8)


def _orthonormal_factors(tensor, seed, max_rank=3):
    rng = np.random.default_rng(seed)
    return [
        np.linalg.qr(rng.standard_normal((s, min(max_rank, s))))[0]
        for s in tensor.shape
    ]


class TestDimTreeInvalidationProperties:
    """The dimension tree's cache-invalidation contract, on random shapes.

    After refreshing ``U_n`` only the root-to-leaf path of ``n`` stays
    fresh, and the following full sweep recomputes exactly the off-path
    non-root nodes — for any tensor order, shape and update sequence, not
    just the hand-picked cases.
    """

    @SETTINGS
    @given(sparse_tensors(max_order=4, max_dim=10, max_nnz=50),
           st.integers(min_value=0, max_value=3),
           st.integers(0, 2**31 - 1))
    def test_invalidation_keeps_exactly_the_path(self, tensor, mode_raw, seed):
        mode = mode_raw % tensor.order
        factors = _orthonormal_factors(tensor, seed)
        tree = DimensionTree(tensor)
        for m in range(tensor.order):
            tree.leaf_matricized(m, factors)
        assert set(tree.fresh_nodes()) == set(tree.nodes)

        tree.invalidate_factor(mode)
        assert set(tree.fresh_nodes()) == set(tree.path(mode))

    @SETTINGS
    @given(sparse_tensors(max_order=4, max_dim=10, max_nnz=50),
           st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=4),
           st.integers(0, 2**31 - 1))
    def test_sweep_recomputes_each_offpath_node_once(
        self, tensor, modes_raw, seed
    ):
        factors = _orthonormal_factors(tensor, seed)
        tree = DimensionTree(tensor)
        for m in range(tensor.order):
            tree.leaf_matricized(m, factors)
        rng = np.random.default_rng(seed)
        for raw in modes_raw:
            mode = raw % tensor.order
            # Replace U_mode and invalidate, as a factor update would.
            factors[mode] = np.linalg.qr(
                rng.standard_normal(factors[mode].shape)
            )[0]
            tree.invalidate_factor(mode)
            before = tree.edge_updates
            for m in range(tensor.order):
                tree.leaf_matricized(m, factors)
            # Off-path non-root nodes are recomputed exactly once each;
            # the path of `mode` stayed fresh.
            expected = len(tree.nodes) - len(tree.path(mode))
            assert tree.edge_updates - before == expected

    @SETTINGS
    @given(sparse_tensors(max_order=4, max_dim=10, max_nnz=50),
           st.integers(min_value=0, max_value=3),
           st.integers(0, 2**31 - 1))
    def test_leaf_matches_per_mode_after_update(self, tensor, mode_raw, seed):
        mode = mode_raw % tensor.order
        factors = _orthonormal_factors(tensor, seed)
        tree = DimensionTree(tensor)
        for m in range(tensor.order):
            tree.leaf_matricized(m, factors)
        rng = np.random.default_rng(seed + 1)
        factors[mode] = np.linalg.qr(
            rng.standard_normal(factors[mode].shape)
        )[0]
        tree.invalidate_factor(mode)
        for m in range(tensor.order):
            assert np.allclose(
                tree.leaf_matricized(m, factors),
                ttmc_matricized(tensor, factors, m),
                atol=1e-10,
            )


@st.composite
def planted_tensors(draw):
    """A planted low-rank tensor of order 3 or 4 and feasible ranks."""
    order = draw(st.integers(min_value=3, max_value=4))
    shape = tuple(draw(st.integers(min_value=6, max_value=14)) for _ in range(order))
    ranks = tuple(draw(st.integers(min_value=2, max_value=3)) for _ in shape)
    nnz = draw(st.integers(min_value=150, max_value=600))
    noise = draw(st.sampled_from([0.0, 0.1]))
    seed = draw(st.integers(0, 2**31 - 1))
    tensor, _ = planted_lowrank_tensor(shape, ranks, nnz, noise=noise, seed=seed)
    return tensor, ranks


#: Largest sweep-to-sweep fit decrease that is still rounding.
FIT_SLACK = {"float64": 1e-10, "float32": 1e-5}


class TestMonotoneFit:
    """HOOI never lowers the fit from one sweep to the next.

    Each sweep replaces ``U_n`` by the leading left singular vectors of
    ``Y_(n)``, which maximizes ``‖G‖`` over ``U_n`` with the other factors
    fixed, so the exact fit cannot fall.  Across the TTMc plans, both TRSVD
    methods and both dtypes, a reported ``fit_history`` may dip only by
    rounding.  Examples are derandomized, so the suite runs the same
    tensors every time.
    """

    @settings(
        max_examples=6,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @pytest.mark.parametrize(
        "tensor_format, strategy, method, dtype",
        list(itertools.product(
            ["coo", "csf"], ["per-mode", "dimtree"], ["lanczos", "gram"],
            ["float64", "float32"],
        )),
    )
    @given(planted_tensors())
    def test_fit_never_decreases(self, tensor_format, strategy, method, dtype, case):
        tensor, ranks = case
        options = HOOIOptions(
            tensor_format=tensor_format, ttmc_strategy=strategy,
            trsvd_method=method, dtype=dtype, max_iterations=8, tolerance=0.0,
            seed=0,
        )
        fits = np.asarray(hooi(tensor, ranks, options).fit_history)
        assert len(fits) == 8
        assert np.diff(fits).min(initial=0.0) >= -FIT_SLACK[dtype], fits


@st.composite
def partitioned_tensors(draw):
    """A random 3-mode tensor plus a random partition of it."""
    shape = tuple(draw(st.integers(min_value=4, max_value=12)) for _ in range(3))
    nnz = draw(st.integers(min_value=20, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    indices = np.column_stack([rng.integers(0, s, nnz) for s in shape])
    values = rng.standard_normal(nnz)
    tensor = SparseTensor(indices, values, shape, sum_duplicates=True)
    strategy = draw(st.sampled_from(["fine-rd", "fine-hp", "coarse-bl",
                                     "coarse-hp"]))
    parts = draw(st.integers(min_value=2, max_value=4))
    return tensor, make_partition(tensor, parts, strategy, seed=seed % 1000)


class TestDistributedOwnershipProperties:
    """Row-ownership / exchange invariants of the distribution plans.

    For any tensor and partition: the owned rows partition every mode, and
    every row a rank needs but does not own is received from exactly one
    peer — its owner — exactly once per mode.
    """

    OWN_SETTINGS = settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )

    @OWN_SETTINGS
    @given(partitioned_tensors())
    def test_owned_rows_partition_every_mode(self, case):
        tensor, partition = case
        _, plans = build_plans(tensor, partition, 2)
        for mode in range(tensor.order):
            owned = np.concatenate([p.modes[mode].owned_rows for p in plans])
            assert sorted(owned.tolist()) == list(range(tensor.shape[mode]))

    @OWN_SETTINGS
    @given(partitioned_tensors())
    def test_every_needed_row_exchanged_exactly_once(self, case):
        tensor, partition = case
        _, plans = build_plans(tensor, partition, 2)
        for mode in range(tensor.order):
            row_owner = partition.row_owner[mode]
            for plan in plans:
                mp = plan.modes[mode]
                owned = set(mp.owned_rows.tolist())
                received = [
                    int(r)
                    for peer, rows in mp.factor_exchange.receive.items()
                    for r in rows
                ]
                # ... exactly once: no duplicates across (or within) peers.
                assert len(received) == len(set(received))
                # ... never a row the rank already owns.
                assert not (set(received) & owned)
                # ... always from the row's owner.
                for peer, rows in mp.factor_exchange.receive.items():
                    assert np.all(row_owner[rows] == peer)
                # ... and together they cover everything the rank needs.
                assert set(mp.local_rows.tolist()) <= owned | set(received)

    @OWN_SETTINGS
    @given(partitioned_tensors())
    def test_exchange_send_receive_are_mirror_images(self, case):
        tensor, partition = case
        _, plans = build_plans(tensor, partition, 2)
        for mode in range(tensor.order):
            for receiver, plan in enumerate(plans):
                for owner, rows in plan.modes[mode].factor_exchange.receive.items():
                    send = plans[owner].modes[mode].factor_exchange.send
                    assert receiver in send
                    assert np.array_equal(np.sort(send[receiver]),
                                          np.sort(rows))


class TestPartitionProperties:
    @SETTINGS
    @given(st.integers(0, 2**31 - 1), st.integers(10, 60), st.integers(2, 5))
    def test_partition_is_valid_and_cut_nonnegative(self, seed, num_vertices, parts):
        rng = np.random.default_rng(seed)
        nets = [
            rng.choice(num_vertices, size=int(rng.integers(2, min(5, num_vertices) + 1)),
                       replace=False)
            for _ in range(num_vertices)
        ]
        hg = Hypergraph(num_vertices, nets)
        assignment = partition_hypergraph(
            hg, parts, options=PartitionerOptions(seed=0, initial_trials=2,
                                                  refine_passes=2)
        )
        assert assignment.shape == (num_vertices,)
        assert assignment.min() >= 0 and assignment.max() < parts
        cut = connectivity_cutsize(hg, assignment, parts)
        assert 0 <= cut <= int(hg.net_costs.sum()) * (parts - 1)
