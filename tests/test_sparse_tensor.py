"""Unit tests for the SparseTensor container."""

import numpy as np
import pytest

from repro.core import SparseTensor
from repro.core.sparse_tensor import (
    colmajor_groups,
    colmajor_keys,
    colmajor_order,
)


def make_tensor():
    indices = np.array([[0, 1, 2], [1, 0, 0], [0, 1, 2], [2, 2, 1]])
    values = np.array([1.0, 2.0, 3.0, -1.0])
    return SparseTensor(indices, values, (3, 3, 3))


class TestConstruction:
    def test_basic_properties(self):
        t = make_tensor()
        assert t.shape == (3, 3, 3)
        assert t.order == 3
        assert t.nnz == 4
        assert t.size == 27
        assert 0 < t.density < 1

    def test_sum_duplicates(self):
        indices = np.array([[0, 1, 2], [1, 0, 0], [0, 1, 2], [2, 2, 1]])
        values = np.array([1.0, 2.0, 3.0, -1.0])
        t = SparseTensor(indices, values, (3, 3, 3), sum_duplicates=True)
        assert t.nnz == 3
        dense = t.to_dense()
        assert dense[0, 1, 2] == 4.0

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[3, 0]]), np.array([1.0]), (3, 3))

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[-1, 0]]), np.array([1.0]), (3, 3))

    def test_value_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[0, 0]]), np.array([1.0, 2.0]), (3, 3))

    def test_column_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[0, 0]]), np.array([1.0]), (3, 3, 3))

    def test_empty_tensor(self):
        t = SparseTensor.empty((4, 5))
        assert t.nnz == 0
        assert t.norm() == 0.0
        assert np.allclose(t.to_dense(), 0.0)

    def test_from_dense_roundtrip(self, rng):
        dense = rng.standard_normal((4, 5, 3))
        dense[np.abs(dense) < 0.7] = 0.0
        t = SparseTensor.from_dense(dense)
        assert np.allclose(t.to_dense(), dense)

    def test_from_dense_tolerance(self):
        dense = np.array([[0.1, 2.0], [0.0, -0.05]])
        t = SparseTensor.from_dense(dense, tol=0.2)
        assert t.nnz == 1

    def test_copy_is_independent(self):
        t = make_tensor()
        c = t.copy()
        c.values[0] = 99.0
        assert t.values[0] != 99.0


class TestOperations:
    def test_norm_matches_dense(self):
        t = make_tensor().deduplicate()
        assert np.isclose(t.norm(), np.linalg.norm(t.to_dense()))

    def test_scale(self):
        t = make_tensor()
        assert np.allclose(t.scale(2.0).values, 2.0 * t.values)

    def test_drop_zeros(self):
        t = SparseTensor(np.array([[0, 0], [1, 1]]), np.array([0.0, 2.0]), (2, 2))
        assert t.drop_zeros().nnz == 1

    def test_permute_modes(self):
        t = make_tensor().deduplicate()
        p = t.permute_modes([2, 0, 1])
        assert p.shape == (3, 3, 3)
        assert np.allclose(p.to_dense(), np.transpose(t.to_dense(), (2, 0, 1)))

    def test_permute_invalid(self):
        with pytest.raises(ValueError):
            make_tensor().permute_modes([0, 1])

    def test_mode_slice(self):
        t = make_tensor().deduplicate()
        s = t.mode_slice(0, 0)
        assert s.shape == (3, 3)
        assert np.allclose(s.to_dense(), t.to_dense()[0])

    def test_mode_slice_out_of_range(self):
        with pytest.raises(ValueError):
            make_tensor().mode_slice(0, 5)

    def test_select_nonzeros(self):
        t = make_tensor()
        sub = t.select_nonzeros(np.array([0, 2]))
        assert sub.nnz == 2
        assert sub.shape == t.shape

    def test_mode_counts(self):
        t = make_tensor()
        counts = t.mode_counts(0)
        assert counts.sum() == t.nnz
        assert counts.shape == (3,)

    def test_nonempty_rows(self):
        t = make_tensor()
        assert set(t.nonempty_rows(0)) == {0, 1, 2}

    def test_linear_indices_unique_after_dedup(self):
        t = make_tensor().deduplicate()
        keys = t.linear_indices()
        assert len(np.unique(keys)) == t.nnz


class TestMatricize:
    def test_matricization_matches_dense(self, small_tensor_3d):
        from repro.core import unfold

        dense = small_tensor_3d.to_dense()
        for mode in range(3):
            sparse_mat = small_tensor_3d.matricize(mode).toarray()
            assert np.allclose(sparse_mat, unfold(dense, mode))

    def test_matricization_4d(self, small_tensor_4d):
        from repro.core import unfold

        dense = small_tensor_4d.to_dense()
        for mode in range(4):
            assert np.allclose(
                small_tensor_4d.matricize(mode).toarray(), unfold(dense, mode)
            )

    def test_matricize_shape(self, small_tensor_3d):
        mat = small_tensor_3d.matricize(1)
        expected_cols = small_tensor_3d.shape[0] * small_tensor_3d.shape[2]
        assert mat.shape == (small_tensor_3d.shape[1], expected_cols)


class TestAllclose:
    def test_identical(self):
        t = make_tensor()
        assert t.allclose(t.copy())

    def test_different_values(self):
        t = make_tensor().deduplicate()
        other = t.copy()
        other.values[0] += 1.0
        assert not t.allclose(other)

    def test_different_shape(self):
        t = make_tensor()
        other = SparseTensor(t.indices, t.values, (3, 3, 4))
        assert not t.allclose(other)

    def test_extra_explicit_zero_ok(self):
        t = SparseTensor(np.array([[0, 0]]), np.array([1.0]), (2, 2))
        other = SparseTensor(
            np.array([[0, 0], [1, 1]]), np.array([1.0, 0.0]), (2, 2)
        )
        assert t.allclose(other)


class TestColmajorOrder:
    """The one column-major comparator, on its int64-key and lexsort paths."""

    def test_key_and_lexsort_paths_agree(self, rng):
        shape = (5, 4, 3)
        idx = np.column_stack([rng.integers(0, s, 200) for s in shape])
        # With shape the int64 keys are argsorted; without it, lexsorted.
        by_keys = colmajor_order(idx, shape)
        by_lexsort = colmajor_order(idx)
        assert np.array_equal(by_keys, by_lexsort)
        assert np.array_equal(
            by_keys, np.argsort(colmajor_keys(idx, shape), kind="stable")
        )
        perm_k, first_k = colmajor_groups(idx, shape)
        perm_l, first_l = colmajor_groups(idx)
        assert np.array_equal(perm_k, by_keys)
        assert np.array_equal(perm_l, by_keys)
        assert np.array_equal(first_k, first_l)
        # The group flags number exactly the distinct coordinates.
        distinct = np.unique(idx, axis=0)
        assert int(first_k.sum()) == distinct.shape[0]
        starts = idx[perm_k[first_k]]
        assert np.array_equal(starts, distinct[np.lexsort(distinct.T)])

    def test_keys_stop_where_int64_ends(self):
        idx = np.array([[0, 0], [3, 1]])
        assert np.array_equal(colmajor_keys(idx, (2**31, 2**31)), [0, 3 + 2**31])
        assert colmajor_keys(idx, (2**62, 2)) is None
        assert np.array_equal(colmajor_order(idx, (2**62, 2)), [0, 1])


class TestPastInt64:
    """∏ shape > 2^63: column-major int64 keys would wrap."""

    SHAPE = (4, 10**5, 10**5, 10**5, 10**5)
    #: Two distinct coordinates whose wrapped int64 keys coincide.
    PAIR = np.array([[0, 0, 0, 0, 0], [0, 87904, 84273, 68601, 4611]])

    def test_pair_collides_in_wrapped_keys(self):
        strides = np.cumprod((1,) + self.SHAPE[:-1], dtype=np.int64)
        with np.errstate(over="ignore"):
            keys = self.PAIR @ strides
        assert keys[0] == keys[1]

    def test_constructor_keeps_pair_apart(self):
        t = SparseTensor(self.PAIR, [1.0, 2.0], self.SHAPE, sum_duplicates=True)
        assert t.nnz == 2
        assert np.array_equal(t.indices, self.PAIR)
        assert np.array_equal(t.values, [1.0, 2.0])

    def test_deduplicate_keeps_pair_apart(self):
        idx = np.vstack([self.PAIR[::-1], self.PAIR])
        t = SparseTensor(idx, [2.0, 1.0, 4.0, 8.0], self.SHAPE).deduplicate()
        assert np.array_equal(t.indices, self.PAIR)
        assert np.array_equal(t.values, [5.0, 10.0])

    def test_apply_delta_keeps_pair_apart(self):
        from repro.streaming import DeltaBatch, apply_delta

        base = SparseTensor(self.PAIR[:1], [1.0], self.SHAPE)
        grown = apply_delta(base, DeltaBatch(self.PAIR[1:], [2.0]))
        assert grown.nnz == 2
        assert np.array_equal(grown.values, [1.0, 2.0])

    def test_stream_keeps_pair_apart(self):
        from repro.streaming import StreamingTensor

        stream = StreamingTensor(shape=self.SHAPE)
        stream.append((self.PAIR[:1], [1.0]))
        stream.append((self.PAIR[1:], [2.0]))
        assert np.array_equal(stream.tensor.indices, self.PAIR)
        assert np.array_equal(stream.tensor.values, [1.0, 2.0])

    def test_fingerprint_ignores_storage_order(self):
        a = SparseTensor(self.PAIR, [1.0, 2.0], self.SHAPE)
        b = SparseTensor(self.PAIR[::-1], [2.0, 1.0], self.SHAPE)
        assert a.fingerprint() == b.fingerprint()

    def test_size_does_not_wrap(self):
        t = SparseTensor(self.PAIR, [1.0, 2.0], self.SHAPE)
        assert t.size == 4 * 10**20
        assert 0 < t.density < 1e-19

    def test_linear_indices_raise(self):
        with pytest.raises(ValueError, match="int64"):
            SparseTensor(self.PAIR, [1.0, 2.0], self.SHAPE).linear_indices()

    def test_matricize_names_the_column_count(self):
        t = SparseTensor(self.PAIR, [1.0, 2.0], self.SHAPE)
        with pytest.raises(ValueError, match=f"= {10**20} columns"):
            t.matricize(0)
        assert t.matricize(1).shape == (10**5, 4 * 10**15)  # fits int64

    def test_allclose(self):
        a = SparseTensor(self.PAIR, [1.0, 2.0], self.SHAPE)
        assert a.allclose(SparseTensor(self.PAIR[::-1], [2.0, 1.0], self.SHAPE))
        assert not a.allclose(SparseTensor(self.PAIR, [3.0, 0.0], self.SHAPE))
