"""Tests for the MET and CP-ALS baselines."""

import numpy as np
import pytest

from repro.baselines import cp_als, met_hooi, mttkrp
from repro.core import HOOIOptions, SparseTensor, hooi
from repro.data import random_tucker_tensor


class TestMET:
    def test_met_matches_nonzero_based_hooi(self, medium_tensor_3d):
        options = HOOIOptions(max_iterations=3, init="random", seed=0)
        ours = hooi(medium_tensor_3d, 5, options)
        met = met_hooi(medium_tensor_3d, 5, options)
        assert np.allclose(ours.fit_history, met.fit_history, atol=1e-9)

    def test_met_4d(self, small_tensor_4d):
        options = HOOIOptions(max_iterations=2, init="random", seed=1)
        ours = hooi(small_tensor_4d, 3, options)
        met = met_hooi(small_tensor_4d, 3, options)
        assert np.allclose(ours.fit_history, met.fit_history, atol=1e-9)

    def test_met_factors_orthonormal(self, small_tensor_3d):
        result = met_hooi(small_tensor_3d, (4, 3, 3), HOOIOptions(max_iterations=2))
        for f in result.decomposition.factors:
            assert np.allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-8)

    def test_met_reports_timings(self, small_tensor_3d):
        result = met_hooi(small_tensor_3d, 3, HOOIOptions(max_iterations=2))
        assert result.timings["ttmc"] > 0


class TestMTTKRP:
    def test_matches_dense_reference(self, small_tensor_3d, rng):
        rank = 4
        factors = [rng.standard_normal((s, rank)) for s in small_tensor_3d.shape]
        dense = small_tensor_3d.to_dense()
        for mode in range(3):
            ours = mttkrp(small_tensor_3d, factors, mode)
            # Dense reference: unfold(X, n) @ khatri_rao(other factors reversed)
            others = [factors[m] for m in range(3) if m != mode]
            kr = np.zeros((others[0].shape[0] * others[1].shape[0], rank))
            for r in range(rank):
                kr[:, r] = np.kron(others[1][:, r], others[0][:, r])
            from repro.core import unfold

            reference = unfold(dense, mode) @ kr
            assert np.allclose(ours, reference, atol=1e-9)

    def test_empty_tensor(self, rng):
        t = SparseTensor.empty((5, 6, 7))
        factors = [rng.standard_normal((s, 3)) for s in t.shape]
        assert np.allclose(mttkrp(t, factors, 0), 0.0)


class TestCPALS:
    def test_fit_non_decreasing(self, medium_tensor_3d):
        result = cp_als(medium_tensor_3d, 4, max_iterations=8, seed=0)
        fits = np.array(result.fit_history)
        assert np.all(np.diff(fits) >= -1e-6)

    def test_recovers_rank_one_tensor(self):
        rng = np.random.default_rng(4)
        a, b, c = rng.random(12) + 0.5, rng.random(10) + 0.5, rng.random(8) + 0.5
        dense = np.einsum("i,j,k->ijk", a, b, c)
        tensor = SparseTensor.from_dense(dense)
        result = cp_als(tensor, 1, max_iterations=20, seed=0)
        assert result.fit > 0.999

    def test_reconstruct_entries_shape(self, small_tensor_3d):
        result = cp_als(small_tensor_3d, 3, max_iterations=3)
        values = result.reconstruct_entries(small_tensor_3d.indices)
        assert values.shape == (small_tensor_3d.nnz,)

    def test_norm_positive(self, small_tensor_3d):
        result = cp_als(small_tensor_3d, 3, max_iterations=3)
        assert result.norm() > 0

    def test_invalid_rank(self, small_tensor_3d):
        with pytest.raises((TypeError, ValueError)):
            cp_als(small_tensor_3d, 0)

    def test_converged_flag_on_easy_problem(self):
        truth = random_tucker_tensor((10, 9, 8), 1, seed=2)
        tensor = SparseTensor.from_dense(truth.to_dense())
        result = cp_als(tensor, 1, max_iterations=50, tolerance=1e-7, seed=0)
        assert result.converged
