"""Unit tests for the symbolic TTMc structures and the numeric TTMc kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SparseTensor,
    SymbolicTTMc,
    dense_ttm_chain,
    stable_radix_order,
    symbolic_ttmc,
    ttmc_flops,
    ttmc_matricized,
    unfold,
)
from repro.core.ttmc import default_block_size, gather_ranges, segment_chunks
from repro.util.linalg import random_orthonormal


class TestSymbolic:
    def test_rows_are_sorted_unique(self, small_tensor_3d):
        for mode in range(3):
            sym = symbolic_ttmc(small_tensor_3d, mode)
            assert np.all(np.diff(sym.rows) > 0)
            assert set(sym.rows) == set(small_tensor_3d.nonempty_rows(mode))

    def test_perm_covers_all_nonzeros(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        assert sorted(sym.perm.tolist()) == list(range(small_tensor_3d.nnz))

    def test_update_lists_group_by_row(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 1)
        for r, row in enumerate(sym.rows):
            positions = sym.perm[sym.rowptr[r]: sym.rowptr[r + 1]]
            assert np.all(small_tensor_3d.indices[positions, 1] == row)

    def test_update_list_lookup(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        row = int(sym.rows[0])
        ul = sym.update_list(row)
        assert np.all(small_tensor_3d.indices[ul, 0] == row)

    def test_update_list_missing_row_empty(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        all_rows = set(range(small_tensor_3d.shape[0]))
        missing = sorted(all_rows - set(sym.rows.tolist()))
        if missing:
            assert sym.update_list(missing[0]).size == 0

    def test_row_sizes_sum_to_nnz(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 2)
        assert sym.row_sizes().sum() == small_tensor_3d.nnz

    def test_empty_tensor(self):
        t = SparseTensor.empty((5, 5))
        sym = symbolic_ttmc(t, 0)
        assert sym.num_rows == 0 and sym.nnz == 0

    def test_all_modes_container(self, small_tensor_4d):
        sym = SymbolicTTMc(small_tensor_4d)
        assert sym.modes() == [0, 1, 2, 3]
        assert 2 in sym
        with pytest.raises(ValueError):
            sym[7]

    def test_subset_of_modes(self, small_tensor_3d):
        sym = SymbolicTTMc(small_tensor_3d, modes=[1])
        assert 1 in sym and 0 not in sym
        with pytest.raises(KeyError):
            sym[0]


class TestNumericTTMc:
    def test_matches_dense_oracle_3d(self, small_tensor_3d, factors_3d):
        dense = small_tensor_3d.to_dense()
        for mode in range(3):
            expected = unfold(
                dense_ttm_chain(dense, factors_3d, skip=mode, transpose=True), mode
            )
            actual = ttmc_matricized(small_tensor_3d, factors_3d, mode)
            assert np.allclose(actual, expected)

    def test_matches_dense_oracle_4d(self, small_tensor_4d, factors_4d):
        dense = small_tensor_4d.to_dense()
        for mode in range(4):
            expected = unfold(
                dense_ttm_chain(dense, factors_4d, skip=mode, transpose=True), mode
            )
            actual = ttmc_matricized(small_tensor_4d, factors_4d, mode)
            assert np.allclose(actual, expected)

    def test_reusing_symbolic_gives_same_result(self, small_tensor_3d, factors_3d):
        sym = symbolic_ttmc(small_tensor_3d, 1)
        a = ttmc_matricized(small_tensor_3d, factors_3d, 1, symbolic=sym)
        b = ttmc_matricized(small_tensor_3d, factors_3d, 1)
        assert np.allclose(a, b)

    def test_small_block_size_same_result(self, small_tensor_3d, factors_3d, request):
        a = ttmc_matricized(small_tensor_3d, factors_3d, 0)
        request.getfixturevalue("block_cap")
        b = ttmc_matricized(small_tensor_3d, factors_3d, 0)
        assert np.allclose(a, b)

    def test_row_subset(self, small_tensor_3d, factors_3d):
        full = ttmc_matricized(small_tensor_3d, factors_3d, 0)
        rows = small_tensor_3d.nonempty_rows(0)[::2]
        partial = ttmc_matricized(small_tensor_3d, factors_3d, 0, rows=rows)
        assert np.allclose(partial[rows], full[rows])
        others = np.setdiff1d(np.arange(small_tensor_3d.shape[0]), rows)
        assert np.allclose(partial[others], 0.0)

    def test_row_subset_with_split_segments(self, small_tensor_3d, factors_3d, request):
        """Blocks smaller than a row's update list split its segment."""
        full = ttmc_matricized(small_tensor_3d, factors_3d, 1)
        rows = small_tensor_3d.nonempty_rows(1)[1::3]
        request.getfixturevalue("block_cap")
        partial = ttmc_matricized(small_tensor_3d, factors_3d, 1, rows=rows)
        assert np.allclose(partial[rows], full[rows], atol=1e-13)
        others = np.setdiff1d(np.arange(small_tensor_3d.shape[1]), rows)
        assert np.all(partial[others] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_order_two_tensor(self, rng, dtype, request):
        """Order 2: a single non-target factor, no Kronecker product at all."""
        indices = np.column_stack(
            [rng.integers(0, 30, 200), rng.integers(0, 25, 200)]
        )
        tensor = SparseTensor(
            indices, rng.standard_normal(200), (30, 25),
            sum_duplicates=True, dtype=dtype,
        )
        factors = [
            random_orthonormal(30, 4, seed=1).astype(dtype),
            random_orthonormal(25, 3, seed=2).astype(dtype),
        ]
        dense = tensor.to_dense().astype(np.float64)
        expected = [
            unfold(dense_ttm_chain(dense, factors, skip=mode, transpose=True), mode)
            for mode in range(2)
        ]
        for capped in (False, True):
            if capped:
                request.getfixturevalue("block_cap")
            for mode in range(2):
                got = ttmc_matricized(tensor, factors, mode)
                assert got.dtype == dtype
                assert np.allclose(
                    got, expected[mode], atol=1e-5 if dtype == np.float32 else 1e-12
                )

    def test_out_buffer_reuse(self, small_tensor_3d, factors_3d):
        width = factors_3d[1].shape[1] * factors_3d[2].shape[1]
        out = np.ones((small_tensor_3d.shape[0], width))
        result = ttmc_matricized(small_tensor_3d, factors_3d, 0, out=out)
        assert result is out
        assert np.allclose(out, ttmc_matricized(small_tensor_3d, factors_3d, 0))

    def test_out_wrong_shape_raises(self, small_tensor_3d, factors_3d):
        with pytest.raises(ValueError):
            ttmc_matricized(
                small_tensor_3d, factors_3d, 0, out=np.zeros((2, 2))
            )

    def test_empty_tensor_gives_zeros(self, factors_3d):
        t = SparseTensor.empty((20, 15, 12))
        out = ttmc_matricized(t, factors_3d, 0)
        assert out.shape == (20, 12)
        assert np.allclose(out, 0.0)

    def test_missing_factor_raises(self, small_tensor_3d, factors_3d):
        bad = [factors_3d[0], None, factors_3d[2]]
        with pytest.raises(ValueError):
            ttmc_matricized(small_tensor_3d, bad, 0)

    def test_factor_for_target_mode_ignored(self, small_tensor_3d, factors_3d):
        with_none = [None, factors_3d[1], factors_3d[2]]
        assert np.allclose(
            ttmc_matricized(small_tensor_3d, with_none, 0),
            ttmc_matricized(small_tensor_3d, factors_3d, 0),
        )

    def test_wrong_factor_rows_raises(self, small_tensor_3d, factors_3d):
        bad = list(factors_3d)
        bad[1] = bad[1][:-1]
        with pytest.raises(ValueError):
            ttmc_matricized(small_tensor_3d, bad, 0)

    def test_mismatched_symbolic_raises(self, small_tensor_3d, factors_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        with pytest.raises(ValueError):
            ttmc_matricized(small_tensor_3d, factors_3d, 1, symbolic=sym)


class TestHelpers:
    def test_gather_ranges(self):
        src = np.arange(20)
        starts = np.array([2, 10, 15])
        counts = np.array([3, 0, 2])
        assert np.array_equal(gather_ranges(src, starts, counts), [2, 3, 4, 15, 16])

    def test_gather_ranges_empty(self):
        out = gather_ranges(np.arange(5), np.array([], dtype=int), np.array([], dtype=int))
        assert out.size == 0

    def test_default_block_size_bounds(self):
        assert default_block_size(1) >= 1024
        assert default_block_size(10**9) >= 1024  # never collapses to zero
        assert default_block_size(100) <= 65536

    def test_ttmc_flops_positive_and_monotonic(self):
        a = ttmc_flops(1000, (10, 10, 10), 0)
        b = ttmc_flops(2000, (10, 10, 10), 0)
        assert 0 < a < b
        assert b == 2 * a

    def test_segment_chunks_cover_every_position(self):
        segptr = np.array([4, 6, 6, 15, 16, 23])
        covered = np.zeros((len(segptr) - 1, 2), dtype=np.int64)
        for start, stop, s_lo, s_hi, local in segment_chunks(segptr, 4):
            assert stop - start <= 4
            assert local[0] == 0 and local[-1] == stop - start
            assert len(local) == s_hi - s_lo + 1
            covered[s_lo:s_hi, 0] += np.diff(local)
        assert np.array_equal(covered[:, 0], np.diff(segptr))


class TestStableRadixOrder:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(
            st.sampled_from([1, 2, 3, 7, 255, 256, 65535, 65536, 65537, 200_000, 2**33]),
            min_size=1, max_size=4,
        ),
        m=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_lexsort(self, sizes, m, seed):
        gen = np.random.default_rng(seed)
        # A few distinct values per column force ties, so stability matters.
        cols = [
            gen.choice(gen.integers(0, size, size=4), size=m).astype(np.int64)
            for size in sizes
        ]
        expected = np.lexsort(cols[::-1])
        got = stable_radix_order(cols, sizes)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_all_size_one_columns_keep_input_order(self):
        cols = [np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64)]
        assert np.array_equal(stable_radix_order(cols, [1, 1]), np.arange(5))

    def test_symbolic_perm_matches_stable_argsort(self, small_tensor_3d):
        for mode in range(3):
            idx = small_tensor_3d.indices[:, mode]
            assert np.array_equal(
                symbolic_ttmc(small_tensor_3d, mode).perm,
                np.argsort(idx, kind="stable"),
            )
