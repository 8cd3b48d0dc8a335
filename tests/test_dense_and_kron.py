"""Unit tests for dense matricization/folding, dense TTM and Kronecker rows."""

import numpy as np
import pytest

from repro.core import (
    batch_kron_rows,
    dense_ttm,
    dense_ttm_chain,
    dense_ttv,
    fold,
    kron_row_length,
    kron_rows,
    segment_kron_sum,
    tensor_norm,
    unfold,
)


class TestUnfoldFold:
    def test_unfold_fold_roundtrip(self, rng):
        t = rng.standard_normal((4, 5, 6))
        for mode in range(3):
            assert np.allclose(fold(unfold(t, mode), mode, t.shape), t)

    def test_unfold_fold_roundtrip_4d(self, rng):
        t = rng.standard_normal((3, 4, 2, 5))
        for mode in range(4):
            assert np.allclose(fold(unfold(t, mode), mode, t.shape), t)

    def test_unfold_known_small_case(self):
        # Kolda & Bader, example 2.1-like check: element (i, j, k) lands in
        # column j + k * J for mode-0 unfolding.
        t = np.arange(24, dtype=float).reshape(2, 3, 4)
        m = unfold(t, 0)
        assert m.shape == (2, 12)
        for j in range(3):
            for k in range(4):
                assert m[1, j + k * 3] == t[1, j, k]

    def test_fold_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            fold(np.zeros((3, 5)), 0, (3, 4))

    def test_unfold_negative_mode(self, rng):
        t = rng.standard_normal((3, 4, 5))
        assert np.allclose(unfold(t, -1), unfold(t, 2))


class TestDenseTTM:
    def test_ttm_matches_einsum(self, rng):
        t = rng.standard_normal((4, 5, 6))
        u = rng.standard_normal((7, 5))
        result = dense_ttm(t, u, 1)
        expected = np.einsum("ijk,lj->ilk", t, u)
        assert np.allclose(result, expected)

    def test_ttm_transpose(self, rng):
        t = rng.standard_normal((4, 5, 6))
        u = rng.standard_normal((5, 2))
        result = dense_ttm(t, u, 1, transpose=True)
        expected = np.einsum("ijk,jl->ilk", t, u)
        assert np.allclose(result, expected)

    def test_ttm_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            dense_ttm(rng.standard_normal((3, 3, 3)), rng.standard_normal((2, 5)), 0)

    def test_ttm_chain_skip(self, rng):
        t = rng.standard_normal((4, 5, 6))
        mats = [rng.standard_normal((s, 2)) for s in t.shape]
        out = dense_ttm_chain(t, mats, skip=1, transpose=True)
        assert out.shape == (2, 5, 2)

    def test_ttm_chain_none_entries_skipped(self, rng):
        t = rng.standard_normal((4, 5, 6))
        mats = [None, rng.standard_normal((5, 2)), None]
        out = dense_ttm_chain(t, mats, transpose=True)
        assert out.shape == (4, 2, 6)

    def test_ttm_order_independence(self, rng):
        t = rng.standard_normal((4, 5, 6))
        a = rng.standard_normal((4, 2))
        c = rng.standard_normal((6, 3))
        one = dense_ttm(dense_ttm(t, a, 0, transpose=True), c, 2, transpose=True)
        two = dense_ttm(dense_ttm(t, c, 2, transpose=True), a, 0, transpose=True)
        assert np.allclose(one, two)

    def test_ttv(self, rng):
        t = rng.standard_normal((4, 5, 6))
        v = rng.standard_normal(5)
        assert np.allclose(dense_ttv(t, v, 1), np.einsum("ijk,j->ik", t, v))

    def test_ttv_mismatch(self, rng):
        with pytest.raises(ValueError):
            dense_ttv(rng.standard_normal((3, 3)), rng.standard_normal(4), 0)

    def test_tensor_norm(self, rng):
        t = rng.standard_normal((3, 4))
        assert np.isclose(tensor_norm(t), np.linalg.norm(t))


class TestKronRows:
    def test_kron_rows_matches_numpy_kron_reversed(self, rng):
        a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
        ours = kron_rows([a, b, c])
        reference = np.kron(c, np.kron(b, a))
        assert np.allclose(ours, reference)

    def test_kron_rows_single(self, rng):
        a = rng.standard_normal(5)
        assert np.allclose(kron_rows([a]), a)

    def test_kron_rows_empty(self):
        assert np.allclose(kron_rows([]), [1.0])

    def test_kron_row_length(self):
        assert kron_row_length([3, 4, 2]) == 24
        assert kron_row_length([]) == 1

    def test_batch_matches_loop(self, rng):
        blocks = [rng.standard_normal((6, 3)), rng.standard_normal((6, 4))]
        batch = batch_kron_rows(blocks)
        assert batch.shape == (6, 12)
        for p in range(6):
            assert np.allclose(batch[p], kron_rows([blocks[0][p], blocks[1][p]]))

    def test_batch_three_blocks(self, rng):
        blocks = [rng.standard_normal((5, 2)), rng.standard_normal((5, 3)),
                  rng.standard_normal((5, 2))]
        batch = batch_kron_rows(blocks)
        for p in range(5):
            assert np.allclose(batch[p], kron_rows([b[p] for b in blocks]))

    def test_batch_row_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            batch_kron_rows([rng.standard_normal((3, 2)), rng.standard_normal((4, 2))])

    def test_batch_requires_2d(self, rng):
        with pytest.raises(ValueError):
            batch_kron_rows([rng.standard_normal(3)])

    def test_batch_empty_list(self):
        with pytest.raises(ValueError):
            batch_kron_rows([])

    def test_layout_consistency_with_unfold(self, rng):
        """kron_rows layout must match the Kolda matricization column order."""
        from repro.core import unfold

        i2, i3 = 3, 4
        u2 = rng.standard_normal(i2)
        u3 = rng.standard_normal(i3)
        outer = np.einsum("j,k->jk", u2, u3)       # (i2, i3) tensor slice
        tensor = outer[None, :, :]                  # 1 x i2 x i3
        row = unfold(tensor, 0)[0]
        assert np.allclose(row, kron_rows([u2, u3]))


def _naive_segment_kron_sum(segptr, left, right, weights):
    width = left.shape[1] * (1 if right is None else right.shape[1])
    out = np.zeros((len(segptr) - 1, width))
    for s in range(len(segptr) - 1):
        for z in range(segptr[s], segptr[s + 1]):
            w = 1.0 if weights is None else float(weights[z])
            parts = [left[z]] if right is None else [left[z], right[z]]
            out[s] += w * kron_rows([np.asarray(p, dtype=float) for p in parts])
    return out


class TestSegmentKronSum:
    # Segments 1 and 4 are empty; the last segment ends at the last row.
    SEGPTR = np.array([0, 3, 3, 7, 12, 12, 15])

    @pytest.mark.parametrize("widths", [(4, 3), (2, 5), (1, 4), (6, 1), (3, None)])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_matches_naive_loop(self, rng, widths, weighted):
        m = int(self.SEGPTR[-1])
        left = rng.standard_normal((m, widths[0]))
        right = None if widths[1] is None else rng.standard_normal((m, widths[1]))
        weights = rng.standard_normal(m) if weighted else None
        got = segment_kron_sum(self.SEGPTR, left, right, weights)
        expected = _naive_segment_kron_sum(self.SEGPTR, left, right, weights)
        assert got.shape == expected.shape
        assert np.allclose(got, expected, atol=1e-13)
        assert np.all(got[[1, 4]] == 0.0)

    def test_float32_is_not_upcast(self, rng):
        m = int(self.SEGPTR[-1])
        left = rng.standard_normal((m, 4)).astype(np.float32)
        right = rng.standard_normal((m, 3)).astype(np.float32)
        weights = rng.standard_normal(m).astype(np.float32)
        got = segment_kron_sum(self.SEGPTR, left, right, weights)
        assert got.dtype == np.float32
        expected = _naive_segment_kron_sum(self.SEGPTR, left, right, weights)
        assert np.allclose(got, expected, rtol=1e-5, atol=1e-5)
        assert segment_kron_sum(self.SEGPTR, left).dtype == np.float32

    def test_mixed_precision_computes_in_float64(self, rng):
        m = int(self.SEGPTR[-1])
        left = rng.standard_normal((m, 2)).astype(np.float32)
        got = segment_kron_sum(self.SEGPTR, left, weights=rng.standard_normal(m))
        assert got.dtype == np.float64

    def test_writes_into_out(self, rng):
        m = int(self.SEGPTR[-1])
        left, right = rng.standard_normal((m, 2)), rng.standard_normal((m, 3))
        out = np.full((len(self.SEGPTR) - 1, 6), np.nan)
        result = segment_kron_sum(self.SEGPTR, left, right, out=out)
        assert result is out
        assert np.allclose(out, _naive_segment_kron_sum(self.SEGPTR, left, right, None))
        with pytest.raises(ValueError, match="out"):
            segment_kron_sum(self.SEGPTR, left, right, out=np.zeros((6, 5)))

    def test_no_rows(self):
        got = segment_kron_sum(np.zeros(3, dtype=np.int64), np.zeros((0, 2)), np.zeros((0, 3)))
        assert got.shape == (2, 6) and np.all(got == 0.0)

    def test_segptr_must_cover_rows(self, rng):
        with pytest.raises(ValueError, match="segptr"):
            segment_kron_sum(np.array([0, 2]), rng.standard_normal((3, 2)))
