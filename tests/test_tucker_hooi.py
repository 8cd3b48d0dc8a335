"""Tests for the TuckerTensor container, HOSVD init and the sequential HOOI."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import decompose
from repro.core import (
    HOOIOptions,
    SparseTensor,
    TuckerTensor,
    core_from_ttmc,
    dense_ttm_chain,
    hooi,
    hooi_iteration_stats,
    hosvd_init,
    initialize_factors,
    random_init,
    tucker_fit,
    ttmc_matricized,
    unfold,
)
from repro.data import planted_lowrank_tensor, random_tucker_tensor


class TestTuckerTensor:
    def test_shape_and_ranks(self):
        t = random_tucker_tensor((10, 8, 6), (3, 2, 2), seed=0)
        assert t.shape == (10, 8, 6)
        assert t.ranks == (3, 2, 2)
        assert t.order == 3

    def test_norm_matches_dense(self):
        t = random_tucker_tensor((8, 7, 6), (3, 3, 2), seed=1)
        assert np.isclose(t.norm(), np.linalg.norm(t.to_dense()))

    def test_norm_non_orthonormal_factors(self, rng):
        core = rng.standard_normal((2, 2))
        factors = [rng.standard_normal((5, 2)), rng.standard_normal((4, 2))]
        t = TuckerTensor(core=core, factors=factors)
        assert np.isclose(t.norm(), np.linalg.norm(t.to_dense()))

    def test_reconstruct_entries_matches_dense(self, rng):
        t = random_tucker_tensor((6, 5, 4), (2, 2, 2), seed=2)
        dense = t.to_dense()
        coords = np.column_stack([rng.integers(0, s, 20) for s in t.shape])
        values = t.reconstruct_entries(coords)
        assert np.allclose(values, dense[tuple(coords.T)])

    def test_reconstruct_entries_bad_shape(self):
        t = random_tucker_tensor((6, 5, 4), 2, seed=0)
        with pytest.raises(ValueError):
            t.reconstruct_entries(np.zeros((3, 2), dtype=int))

    def test_compression_ratio(self):
        t = random_tucker_tensor((20, 20, 20), 2, seed=0)
        assert t.compression_ratio() > 1.0
        assert t.compression_ratio(nnz=100) < t.compression_ratio()

    def test_mismatched_core_factor_raises(self):
        with pytest.raises(ValueError):
            TuckerTensor(core=np.zeros((2, 2)), factors=[np.zeros((5, 2)), np.zeros((4, 3))])

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            TuckerTensor(core=np.zeros((2, 2, 2)), factors=[np.zeros((5, 2))] * 2)


class TestCoreAndFit:
    def test_core_from_ttmc_matches_dense(self, small_tensor_3d, factors_3d):
        ranks = tuple(f.shape[1] for f in factors_3d)
        last_mode = small_tensor_3d.order - 1
        y_last = ttmc_matricized(small_tensor_3d, factors_3d, last_mode)
        core = core_from_ttmc(y_last, factors_3d[last_mode], ranks)
        expected = dense_ttm_chain(
            small_tensor_3d.to_dense(), factors_3d, transpose=True
        )
        assert np.allclose(core, expected)

    def test_fit_orthonormal_shortcut_matches_dense(self, small_tensor_3d, factors_3d):
        ranks = tuple(f.shape[1] for f in factors_3d)
        core = dense_ttm_chain(small_tensor_3d.to_dense(), factors_3d, transpose=True)
        model = TuckerTensor(core=core, factors=list(factors_3d))
        fast = tucker_fit(small_tensor_3d, model, assume_orthonormal=True)
        slow = tucker_fit(small_tensor_3d, model, assume_orthonormal=False)
        assert np.isclose(fast, slow, atol=1e-10)

    def test_fit_of_exact_model_is_one(self):
        truth = random_tucker_tensor((8, 7, 6), (3, 2, 2), seed=3)
        tensor = SparseTensor.from_dense(truth.to_dense())
        assert tucker_fit(tensor, truth) > 1 - 1e-10

    def test_fit_zero_tensor(self):
        t = SparseTensor.empty((4, 4, 4))
        model = random_tucker_tensor((4, 4, 4), 2, seed=0)
        assert tucker_fit(t, model) == 1.0


class TestInitialization:
    def test_random_init_shapes_and_orthonormality(self, small_tensor_3d):
        factors = random_init(small_tensor_3d, (5, 4, 3), seed=0)
        for f, size, rank in zip(factors, small_tensor_3d.shape, (5, 4, 3)):
            assert f.shape == (size, rank)
            assert np.allclose(f.T @ f, np.eye(rank), atol=1e-10)

    @pytest.mark.parametrize("planted", [False, True])
    def test_hosvd_init_captures_leading_subspace(self, small_tensor_3d, planted):
        tensor = small_tensor_3d
        if planted:
            # A planted spectrum with most columns of every X_(n) empty.
            tensor, _ = planted_lowrank_tensor((40, 30, 20), (5, 4, 3), 900, seed=2)
        factors = hosvd_init(tensor, (5, 4, 3))
        dense = tensor.to_dense()
        for mode, factor in enumerate(factors):
            u, _, _ = np.linalg.svd(unfold(dense, mode), full_matrices=False)
            k = factor.shape[1]
            ours = factor @ factor.T
            ref = u[:, :k] @ u[:, :k].T
            assert np.allclose(ours, ref, atol=1e-6)

    @pytest.mark.parametrize("ranks", [(3, 3, 3, 3), (8, 3, 3, 3)])
    def test_hosvd_init_ignores_empty_columns(self, ranks):
        """``X_(0)`` has 10^12 columns, of which at most 2,000 hold a nonzero."""
        shape = (8, 10**4, 10**4, 10**4)
        rng = np.random.default_rng(0)
        indices = np.column_stack([rng.integers(0, s, 2000) for s in shape])
        tensor = SparseTensor(indices, rng.standard_normal(2000), shape)
        factors = hosvd_init(tensor, ranks)
        for factor, size, rank in zip(factors, shape, ranks):
            assert factor.shape == (size, rank)
            assert np.allclose(factor.T @ factor, np.eye(rank), atol=1e-10)

    def test_hosvd_init_past_int64(self):
        """``∏_{t≠n} I_t`` passes 2^63: no linear column index is formed."""
        shape = (4, 10**5, 10**5, 10**5, 10**5)
        ranks = (2, 3, 3, 3, 3)
        rng = np.random.default_rng(0)
        indices = np.column_stack([rng.integers(0, s, 500) for s in shape])
        tensor = SparseTensor(indices, rng.standard_normal(500), shape)
        run = decompose(tensor, ranks, init="hosvd", max_iterations=2)
        for factors in (hosvd_init(tensor, ranks), run.decomposition.factors):
            for factor, size, rank in zip(factors, shape, ranks):
                assert factor.shape == (size, rank)
                assert np.allclose(factor.T @ factor, np.eye(rank), atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_hosvd_init_matches_matricize_columns(self, small_tensor_4d, seed):
        """Bit-identical to ARPACK on ``matricize``'s non-empty columns."""
        ranks = (3, 3, 2, 2)
        expected = []
        for mode, rank in enumerate(ranks):
            mat = small_tensor_4d.matricize(mode)
            used, compact = np.unique(mat.indices, return_inverse=True)
            mat = sp.csr_matrix(
                (mat.data, compact, mat.indptr),
                shape=(mat.shape[0], used.shape[0]),
            )
            v0 = np.random.default_rng(seed + mode).standard_normal(min(mat.shape))
            u, _, _ = spla.svds(mat, k=rank, v0=v0)
            expected.append(u[:, ::-1])
        factors = hosvd_init(small_tensor_4d, ranks, seed=seed)
        for ours, theirs in zip(factors, expected):
            assert np.array_equal(ours, theirs)

    def test_hosvd_init_with_fewer_columns_than_rank(self):
        tensor = SparseTensor(
            np.array([[0, 1, 2], [3, 4, 0]]), np.array([1.0, 2.0]), (5, 5, 5)
        )
        for factor in hosvd_init(tensor, 3):
            assert factor.shape == (5, 3)
            assert np.allclose(factor.T @ factor, np.eye(3), atol=1e-12)

    def test_initialize_factors_explicit_list(self, small_tensor_3d, factors_3d):
        out = initialize_factors(small_tensor_3d, (5, 4, 3), init=factors_3d)
        for a, b in zip(out, factors_3d):
            assert np.allclose(a, b)
            assert a is not b  # copies

    def test_initialize_factors_bad_shape(self, small_tensor_3d, factors_3d):
        bad = [f[:-1] for f in factors_3d]
        with pytest.raises(ValueError):
            initialize_factors(small_tensor_3d, (5, 4, 3), init=bad)

    def test_initialize_factors_unknown_string(self, small_tensor_3d):
        with pytest.raises(ValueError):
            initialize_factors(small_tensor_3d, 3, init="bogus")


class TestHOOI:
    def test_result_keeps_no_singular_vectors(self):
        """Per-mode stats keep counters and singular values, so a result
        (a served reply, a cache entry) stays near its decomposition's size."""
        tensor, _ = planted_lowrank_tensor(
            (200, 150, 100), (6, 6, 6), 6000, noise=0.05, seed=0
        )
        result = hooi(tensor, 6, HOOIOptions(max_iterations=7, tolerance=0.0, seed=0))
        assert result.iterations == 7 and len(result.trsvd_stats) == 21
        for stats in result.trsvd_stats:
            assert stats.left is None and stats.right is None
            assert stats.singular_values.shape == (6,) and stats.matvecs > 0
        assert len(pickle.dumps(result)) < 40_000

    def test_fit_monotonically_nondecreasing(self, medium_tensor_3d):
        result = hooi(medium_tensor_3d, 5, HOOIOptions(max_iterations=5, init="hosvd"))
        fits = np.array(result.fit_history)
        assert np.all(np.diff(fits) >= -1e-9)

    def test_factors_orthonormal(self, small_tensor_3d):
        result = hooi(small_tensor_3d, (5, 4, 3), HOOIOptions(max_iterations=3))
        for f in result.decomposition.factors:
            assert np.allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-8)

    def test_fit_consistent_with_tucker_fit(self, small_tensor_3d):
        result = hooi(small_tensor_3d, (5, 4, 3), HOOIOptions(max_iterations=3))
        assert np.isclose(result.fit, tucker_fit(small_tensor_3d, result.decomposition),
                          atol=1e-9)

    def test_exact_recovery_of_lowrank_tensor(self):
        truth = random_tucker_tensor((15, 12, 10), (3, 2, 2), seed=5)
        tensor = SparseTensor.from_dense(truth.to_dense())
        result = hooi(tensor, (3, 2, 2), HOOIOptions(max_iterations=8, init="hosvd"))
        assert result.fit > 0.999

    def test_full_rank_reproduces_tensor(self, small_tensor_3d):
        ranks = small_tensor_3d.shape
        result = hooi(small_tensor_3d, ranks, HOOIOptions(max_iterations=2, init="hosvd"))
        assert result.fit > 0.999

    def test_4d_hooi_runs(self, small_tensor_4d):
        result = hooi(small_tensor_4d, 3, HOOIOptions(max_iterations=3))
        assert result.decomposition.core.shape == (3, 3, 3, 3)
        assert len(result.fit_history) == result.iterations

    def test_convergence_stops_early(self):
        truth = random_tucker_tensor((12, 10, 8), 2, seed=6)
        tensor = SparseTensor.from_dense(truth.to_dense())
        result = hooi(tensor, 2, HOOIOptions(max_iterations=50, init="hosvd",
                                             tolerance=1e-8))
        assert result.converged
        assert result.iterations < 50

    def test_callback_invoked(self, small_tensor_3d):
        calls = []
        hooi(
            small_tensor_3d, 3,
            HOOIOptions(max_iterations=3),
            callback=lambda it, fit: calls.append((it, fit)),
        )
        assert len(calls) == 3

    def test_iteration_stats(self, small_tensor_3d):
        result = hooi(small_tensor_3d, 3, HOOIOptions(max_iterations=2))
        stats = hooi_iteration_stats(result)
        assert stats["ttmc"] > 0
        assert stats["trsvd"] > 0

    def test_timings_recorded(self, small_tensor_3d):
        result = hooi(small_tensor_3d, 3, HOOIOptions(max_iterations=2))
        assert result.timings["ttmc"] > 0
        assert result.timings["symbolic"] >= 0

    def test_fit_raises_on_empty_history(self, small_tensor_3d):
        # A result assembled from a run that died mid-iteration has no fit;
        # accessing it must raise instead of silently returning NaN.
        result = hooi(small_tensor_3d, 3, HOOIOptions(max_iterations=1))
        result.fit_history.clear()
        with pytest.raises(ValueError, match="fit_history is empty"):
            result.fit
