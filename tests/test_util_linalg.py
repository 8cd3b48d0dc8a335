"""Unit tests for repro.util.linalg and repro.util.timing."""

import time

import numpy as np
import pytest

from repro.util.linalg import (
    normalize_columns,
    orthonormalize,
    random_orthonormal,
)
from repro.util.timing import TimingBreakdown


class TestOrthonormalize:
    def test_columns_are_orthonormal(self, rng):
        q = orthonormalize(rng.standard_normal((30, 5)))
        assert np.allclose(q.T @ q, np.eye(5), atol=1e-10)

    def test_preserves_column_space(self, rng):
        a = rng.standard_normal((20, 3))
        q = orthonormalize(a)
        # Projection of a onto span(q) should equal a.
        assert np.allclose(q @ (q.T @ a), a, atol=1e-10)

    def test_rank_deficient_input_still_orthonormal(self, rng):
        a = rng.standard_normal((15, 2))
        deficient = np.hstack([a, a[:, :1]])  # third column is a duplicate
        q = orthonormalize(deficient)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-8)

    @staticmethod
    def _assert_orthonormal_basis_of(a):
        q = orthonormalize(a)
        assert q.shape == a.shape
        assert np.abs(q.T @ q - np.eye(a.shape[1])).max() < 1e-12
        # Every input column stays in span(q).
        assert np.abs(q @ (q.T @ a) - a).max() < 1e-12

    @pytest.mark.parametrize("zeroed", [(3,), (2, 5)])
    def test_square_input_with_zero_columns(self, rng, zeroed):
        a = rng.standard_normal((8, 8))
        a[:, list(zeroed)] = 0.0
        self._assert_orthonormal_basis_of(a)

    def test_square_input_with_dependent_columns(self, rng):
        a = rng.standard_normal((8, 8))
        a[:, 2] = a[:, 0] + a[:, 1]
        a[:, 5] = 3.0 * a[:, 4]
        self._assert_orthonormal_basis_of(a)

    def test_tall_input_keeps_span_with_middle_column_zeroed(self, rng):
        a = rng.standard_normal((30, 5))
        a[:, 1] = 0.0
        self._assert_orthonormal_basis_of(a)

    def test_too_many_columns_raises(self):
        with pytest.raises(ValueError):
            orthonormalize(np.ones((3, 5)))

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            orthonormalize(np.ones(4))


class TestRandomOrthonormal:
    def test_shape_and_orthonormality(self):
        q = random_orthonormal(12, 4, seed=0)
        assert q.shape == (12, 4)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-10)

    def test_deterministic_with_seed(self):
        assert np.allclose(random_orthonormal(8, 3, seed=5), random_orthonormal(8, 3, seed=5))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            random_orthonormal(3, 4)


class TestNormalizeColumns:
    def test_unit_norms(self, rng):
        m, norms = normalize_columns(rng.standard_normal((10, 4)))
        assert np.allclose(np.linalg.norm(m, axis=0), 1.0)
        assert norms.shape == (4,)

    def test_zero_column_untouched(self):
        a = np.zeros((5, 2))
        a[:, 0] = 3.0
        m, norms = normalize_columns(a)
        assert np.allclose(m[:, 1], 0.0)
        assert norms[1] == 1.0

    def test_reconstruction(self, rng):
        a = rng.standard_normal((6, 3))
        m, norms = normalize_columns(a)
        assert np.allclose(m * norms, a)


class TestTimingBreakdown:
    def test_add_and_total(self):
        tb = TimingBreakdown()
        tb.add("a", 1.0)
        tb.add("b", 3.0)
        tb.add("a", 1.0)
        assert tb["a"] == 2.0
        assert tb.total() == 5.0

    def test_fractions_sum_to_one(self):
        tb = TimingBreakdown()
        tb.add("x", 2.0)
        tb.add("y", 6.0)
        fractions = tb.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-12
        assert abs(fractions["y"] - 0.75) < 1e-12

    def test_empty_fractions(self):
        assert TimingBreakdown().fractions() == {}

    def test_context_manager(self):
        tb = TimingBreakdown()
        with tb.time("phase"):
            time.sleep(0.005)
        assert tb["phase"] > 0.0

    def test_merge(self):
        a = TimingBreakdown()
        a.add("x", 1.0)
        b = TimingBreakdown()
        b.add("x", 2.0)
        b.add("y", 1.0)
        a.merge(b)
        assert a["x"] == 3.0 and a["y"] == 1.0

    def test_percentages(self):
        tb = TimingBreakdown()
        tb.add("x", 1.0)
        tb.add("y", 1.0)
        assert abs(tb.as_percentages()["x"] - 50.0) < 1e-12
