"""Symbolic TTMc (the paper's preprocessing step, Section III-A.1).

For each mode ``n`` the numeric TTMc accumulates one outer/Kronecker product
per nonzero into the row ``Y_(n)(i_n, :)`` of the matricized result.  Two
nonzeros sharing the same mode-``n`` index therefore write to the same row —
the write conflict the paper untangles by building, once and for all before
the HOOI iterations, the *update list* ``ul_n(i)``: the list of nonzeros that
contribute to row ``i``, together with the set ``J_n`` of non-empty rows.

Here the update lists are stored CSR-style: a permutation of nonzero positions
grouped by mode-``n`` index plus a row-pointer array.  This keeps the numeric
kernel fully vectorized (a gather + segment-sum) and is exactly the reusable
"symbolic data" of Algorithm 3, lines 1-2 and Algorithm 4, lines 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.sparse_tensor import SparseTensor
from repro.util.validation import check_axis

__all__ = [
    "ModeSymbolic",
    "SymbolicTTMc",
    "stable_radix_order",
    "symbolic_ttmc",
    "symbolic_all_modes",
]


def stable_radix_order(
    cols: Sequence[np.ndarray], sizes: Sequence[int]
) -> np.ndarray:
    """Stable lexicographic order of index columns (first column primary).

    Equal to ``np.lexsort(cols[::-1])`` — bit-identical, ties keep their
    input order — for non-negative ``cols[k] < sizes[k]``.  It is a
    least-significant-digit radix sort: the columns are visited last to
    first and each in 16-bit digits, low digit first, and every pass is a
    stable ``argsort`` of ``uint16`` keys, which NumPy runs as a counting
    radix sort.  A column of size 1 needs no pass.  No packed multi-column
    key is formed, so no combination of sizes can overflow.
    """
    if len(cols) != len(sizes):
        raise ValueError("cols and sizes must have the same length")
    perm = None
    for col, size in zip(reversed(cols), reversed(sizes)):
        col = np.asarray(col)
        for shift in range(0, max(int(size) - 1, 0).bit_length(), 16):
            keys = col if perm is None else col[perm]
            digit = (keys >> shift).astype(np.uint16)
            order = np.argsort(digit, kind="stable")
            perm = order if perm is None else perm[order]
    if perm is None:
        return np.arange(len(cols[0]) if cols else 0, dtype=np.int64)
    return perm.astype(np.int64, copy=False)


@dataclass(frozen=True)
class ModeSymbolic:
    """Update lists for a single mode.

    Attributes
    ----------
    mode:
        The mode this structure describes.
    rows:
        ``J_n`` — sorted array of mode-``n`` indices owning at least one
        nonzero (only these rows of ``Y_(n)`` are ever touched).
    perm:
        Permutation of nonzero positions such that nonzeros contributing to
        the same row are contiguous, ordered consistently with ``rows``.
    rowptr:
        Array of length ``len(rows) + 1``; nonzeros for ``rows[r]`` occupy
        ``perm[rowptr[r]:rowptr[r + 1]]``.
    """

    mode: int
    rows: np.ndarray
    perm: np.ndarray
    rowptr: np.ndarray

    @property
    def num_rows(self) -> int:
        """Number of non-empty rows (``|J_n|``)."""
        return int(self.rows.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.perm.shape[0])

    def update_list(self, row_index: int) -> np.ndarray:
        """Nonzero positions contributing to the given mode-``n`` index.

        ``row_index`` is a *tensor* index (an element of ``rows``), not a
        position into ``rows``; an empty array is returned for rows with no
        nonzeros, mirroring ``ul_n(i) = ∅``.
        """
        pos = np.searchsorted(self.rows, row_index)
        if pos >= self.rows.shape[0] or self.rows[pos] != row_index:
            return np.empty(0, dtype=np.int64)
        return self.perm[self.rowptr[pos]: self.rowptr[pos + 1]]

    def row_sizes(self) -> np.ndarray:
        """Number of contributing nonzeros per non-empty row."""
        return np.diff(self.rowptr)


class SymbolicTTMc:
    """Symbolic TTMc data for every mode of a tensor (``{ul_n, J_n}`` for all n)."""

    def __init__(self, tensor: SparseTensor, modes: Optional[Sequence[int]] = None):
        self.shape = tensor.shape
        self.order = tensor.order
        self.nnz = tensor.nnz
        self._per_mode: Dict[int, ModeSymbolic] = {}
        if modes is None:
            modes = range(tensor.order)
        for mode in modes:
            self._per_mode[check_axis(mode, tensor.order)] = symbolic_ttmc(
                tensor, mode
            )

    def __contains__(self, mode: int) -> bool:
        return mode in self._per_mode

    def __getitem__(self, mode: int) -> ModeSymbolic:
        mode = check_axis(mode, self.order)
        if mode not in self._per_mode:
            raise KeyError(f"symbolic data was not built for mode {mode}")
        return self._per_mode[mode]

    def modes(self) -> List[int]:
        return sorted(self._per_mode)


def symbolic_ttmc(tensor: SparseTensor, mode: int) -> ModeSymbolic:
    """Build the mode-``n`` update lists for ``tensor``.

    The construction is a single stable radix sort of the nonzero positions
    by their mode-``n`` index (:func:`stable_radix_order`) — O(nnz) per
    16-bit digit — performed once and reused by every numeric TTMc in every
    HOOI iteration.
    """
    mode = check_axis(mode, tensor.order)
    idx = tensor.indices[:, mode]
    perm = stable_radix_order([idx], [tensor.shape[mode]])
    sorted_idx = idx[perm]
    if sorted_idx.shape[0] == 0:
        return ModeSymbolic(
            mode=mode,
            rows=np.empty(0, dtype=np.int64),
            perm=perm,
            rowptr=np.zeros(1, dtype=np.int64),
        )
    boundary = np.empty(sorted_idx.shape, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
    rows = sorted_idx[boundary]
    starts = np.flatnonzero(boundary).astype(np.int64)
    rowptr = np.concatenate([starts, [sorted_idx.shape[0]]]).astype(np.int64)
    return ModeSymbolic(mode=mode, rows=rows, perm=perm, rowptr=rowptr)


def symbolic_all_modes(tensor: SparseTensor) -> SymbolicTTMc:
    """Convenience wrapper building symbolic data for every mode."""
    return SymbolicTTMc(tensor)
