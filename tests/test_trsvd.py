"""Unit tests for the matrix-free truncated SVD solvers."""

import numpy as np
import pytest

from repro.core import (
    DenseOperator,
    LinearOperator,
    gram_svd,
    lanczos_svd,
    truncated_svd,
)


def spectrum_matrix(rng, m=120, n=40, decay=0.5):
    """Matrix with a controlled, well-separated spectrum."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = decay ** np.arange(n) * 10.0
    return (u * s) @ v.T


class SpyOperator(LinearOperator):
    """Dense operator that records every product the solver asks for."""

    def __init__(self, a):
        self.a = a
        self.shape = a.shape
        self.matvec_calls = 0
        self.rmatvec_calls = 0

    def matvec(self, x):
        self.matvec_calls += 1
        return self.a @ x

    def rmatvec(self, y):
        self.rmatvec_calls += 1
        return self.a.T @ y


class TestDenseOperator:
    def test_matvec_rmatvec(self, rng):
        a = rng.standard_normal((8, 5))
        op = DenseOperator(a)
        x = rng.standard_normal(5)
        y = rng.standard_normal(8)
        assert np.allclose(op.matvec(x), a @ x)
        assert np.allclose(op.rmatvec(y), a.T @ y)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            DenseOperator(np.ones(3))

    def test_default_left_reductions_are_local(self, rng):
        a = rng.standard_normal((8, 5))
        op = DenseOperator(a)
        basis = rng.standard_normal((8, 3))
        u = rng.standard_normal(8)
        assert op.global_rows() == 8
        assert np.array_equal(op.left_dot(basis, u), basis.T @ u)
        assert op.left_norm(u) == np.linalg.norm(u)
        shared = np.random.default_rng(0)
        assert op.left_rng(shared, 0) is shared


class TestLanczos:
    def test_singular_values_match_dense(self, rng):
        a = spectrum_matrix(rng)
        result = lanczos_svd(a, 5)
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(result.singular_values, s[:5], rtol=1e-6)

    def test_left_subspace_matches(self, rng):
        a = spectrum_matrix(rng)
        result = lanczos_svd(a, 4)
        u, _, _ = np.linalg.svd(a, full_matrices=False)
        ours = result.left @ result.left.T
        reference = u[:, :4] @ u[:, :4].T
        assert np.allclose(ours, reference, atol=1e-6)

    def test_left_vectors_orthonormal(self, rng):
        result = lanczos_svd(spectrum_matrix(rng), 6)
        gram = result.left.T @ result.left
        assert np.allclose(gram, np.eye(6), atol=1e-8)

    def test_right_vectors_returned(self, rng):
        a = spectrum_matrix(rng)
        result = lanczos_svd(a, 3)
        assert result.right is not None
        # A v ≈ σ u for each triplet.
        for i in range(3):
            assert np.allclose(
                a @ result.right[:, i],
                result.singular_values[i] * result.left[:, i],
                atol=1e-6,
            )

    def test_counts_operator_applications(self, rng):
        op = SpyOperator(spectrum_matrix(rng, decay=0.9))
        result = lanczos_svd(op, 3, max_restarts=4)
        assert result.iterations > 1  # the counts span thick restarts
        assert result.matvecs == op.matvec_calls > 0
        assert result.rmatvecs == op.rmatvec_calls > 0

    def test_rank_larger_than_dims_clipped(self, rng):
        a = rng.standard_normal((10, 4))
        result = lanczos_svd(a, 9)
        assert result.rank == 4

    def test_rank_equal_to_min_dim(self, rng):
        a = rng.standard_normal((12, 5))
        result = lanczos_svd(a, 5)
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(np.sort(result.singular_values)[::-1], s, rtol=1e-6)

    def test_invalid_rank(self, rng):
        with pytest.raises(ValueError):
            lanczos_svd(rng.standard_normal((5, 5)), 0)

    def test_deterministic_given_seed(self, rng):
        a = spectrum_matrix(rng)
        r1 = lanczos_svd(a, 4, seed=3)
        r2 = lanczos_svd(a, 4, seed=3)
        assert np.allclose(r1.left, r2.left)

    def test_rank_one_matrix(self, rng):
        u = rng.standard_normal(30)
        v = rng.standard_normal(8)
        a = np.outer(u, v)
        result = lanczos_svd(a, 2)
        assert np.isclose(result.singular_values[0],
                          np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-8)
        assert result.singular_values[1] < 1e-6

    def test_zero_matrix(self):
        result = lanczos_svd(np.zeros((10, 6)), 2)
        assert np.allclose(result.singular_values, 0.0)


class TestDispatcher:
    def test_gram_method(self, rng):
        a = spectrum_matrix(rng)
        result = truncated_svd(a, 3, method="gram")
        u, _, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(result.left @ result.left.T, u[:, :3] @ u[:, :3].T,
                           atol=1e-6)

    def test_methods_agree_on_subspace(self, rng):
        a = spectrum_matrix(rng)
        subspaces = []
        for method in ("lanczos", "gram"):
            res = truncated_svd(a, 3, method=method)
            subspaces.append(res.left @ res.left.T)
        for other in subspaces[1:]:
            assert np.allclose(subspaces[0], other, atol=1e-5)

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            truncated_svd(rng.standard_normal((4, 4)), 2, method="magic")

    def test_gram_method_requires_matrix(self, rng):
        with pytest.raises(TypeError, match="explicit matrix"):
            truncated_svd(SpyOperator(np.eye(4)), 2, method="gram")


class TestGramSVD:
    """The W×W Gram path: eigh(YᵀY) + U = Y V Σ⁻¹ for tall-skinny operands."""

    def test_matches_dense_svd_on_tall_matrix(self, rng):
        a = spectrum_matrix(rng, m=500, n=12)
        result = gram_svd(a, 4)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(result.singular_values, s[:4], rtol=1e-8)
        assert np.allclose(
            result.left @ result.left.T, u[:, :4] @ u[:, :4].T, atol=1e-7
        )
        # Left vectors are orthonormal and the right factor is returned.
        assert np.allclose(result.left.T @ result.left, np.eye(4), atol=1e-10)
        assert result.right.shape == (12, 4)

    def test_reconstruction(self, rng):
        a = spectrum_matrix(rng, m=200, n=8)
        res = gram_svd(a, 8)
        approx = (res.left * res.singular_values) @ res.right.T
        assert np.allclose(approx, a, atol=1e-7)

    def test_rank_deficient_stays_orthonormal(self, rng):
        # Rank-2 matrix, rank-4 request: the squashed directions must be
        # completed to an orthonormal basis instead of returning garbage.
        a = np.outer(rng.standard_normal(60), rng.standard_normal(6))
        a += np.outer(rng.standard_normal(60), rng.standard_normal(6))
        res = gram_svd(a, 4)
        assert np.allclose(res.left.T @ res.left, np.eye(4), atol=1e-8)
        assert res.singular_values[2] < 1e-6 * res.singular_values[0]

    def test_float32_operand_keeps_cheap_gemm(self, rng):
        a = spectrum_matrix(rng, m=300, n=10).astype(np.float32)
        res = gram_svd(a, 3)
        u, s, _ = np.linalg.svd(np.asarray(a, dtype=np.float64),
                                full_matrices=False)
        assert np.allclose(res.singular_values, s[:3], rtol=1e-3)
        assert np.allclose(
            res.left @ res.left.T, u[:, :3] @ u[:, :3].T, atol=1e-3
        )

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            gram_svd(rng.standard_normal((5, 3)), 0)
        with pytest.raises(ValueError):
            gram_svd(np.ones(4), 2)

    def test_hooi_gram_option_close_to_lanczos(self, rng):
        from repro.core import HOOIOptions, SparseTensor, hooi

        idx = rng.integers(0, 25, size=(800, 3))
        tensor = SparseTensor(idx, rng.standard_normal(800), (25, 25, 25),
                              sum_duplicates=True)
        lanczos = hooi(tensor, 4, HOOIOptions(
            max_iterations=3, init="hosvd", seed=0, trsvd_method="lanczos"))
        gram = hooi(tensor, 4, HOOIOptions(
            max_iterations=3, init="hosvd", seed=0, trsvd_method="gram"))
        assert abs(lanczos.fit - gram.fit) < 1e-6

    @pytest.mark.parametrize("strategy", ["per-mode", "dimtree"])
    def test_rank_deficient_full_rank_mode_matches_lanczos(self, strategy):
        """``R_1 = I_1`` on a mode whose ``Y_(1)`` (8 × 100) has rank 7.

        The squashed eighth direction goes through ``orthonormalize`` on a
        square input; a non-orthonormal completion there made the
        core-norm fit read 1.0 at sweep 3.
        """
        from repro.core import HOOIOptions, hooi
        from repro.data import make_dataset

        tensor = make_dataset("nell", scale=2e-3, seed=0)
        runs = {
            method: hooi(tensor, (10, 8, 10), HOOIOptions(
                max_iterations=4, tolerance=0.0, seed=0,
                trsvd_method=method, ttmc_strategy=strategy))
            for method in ("lanczos", "gram")
        }
        gram = runs["gram"]
        assert np.allclose(
            gram.fit_history, runs["lanczos"].fit_history, atol=1e-6
        )
        u1 = gram.decomposition.factors[1]
        assert np.allclose(u1.T @ u1, np.eye(8), atol=1e-10)

    def test_distributed_rejects_gram(self, rng):
        from repro.core import HOOIOptions, SparseTensor
        from repro.distributed import distributed_hooi
        from repro.partition import make_partition

        idx = rng.integers(0, 10, size=(100, 3))
        tensor = SparseTensor(idx, rng.standard_normal(100), (10, 10, 10),
                              sum_duplicates=True)
        partition = make_partition(tensor, 2, "coarse-bl")
        with pytest.raises(ValueError, match="lanczos"):
            distributed_hooi(tensor, 3, partition,
                             HOOIOptions(max_iterations=1, trsvd_method="gram"))
