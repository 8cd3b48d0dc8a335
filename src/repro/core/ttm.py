"""Sparse tensor-times-matrix (TTM) and tensor-times-vector (TTV) products.

These are the classical building blocks that alternative TTMc evaluation
schemes (the MET baseline, HOSVD initialization) are built from.  A single
sparse TTM ``X ×_n Uᵀ`` produces a semi-sparse result: it stays sparse in all
modes except ``n``, which becomes dense of size ``R_n``.  We represent that
result as a :class:`SemiSparseTensor` — a COO list over the un-multiplied
modes whose "values" are dense vectors of length ``R_n`` — which is exactly
the structure a TTM chain threads through successive multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.kron import batch_kron_rows
from repro.core.sparse_tensor import (
    SparseTensor,
    as_supported_float,
    colmajor_groups,
)
from repro.util.validation import check_axis

__all__ = ["SemiSparseTensor", "sparse_ttm", "sparse_ttv", "sparse_ttm_chain"]


@dataclass
class SemiSparseTensor:
    """Result of multiplying a sparse tensor in a subset of its modes.

    Attributes
    ----------
    indices:
        ``(m, k)`` integer array over the *remaining* (un-multiplied) modes;
        duplicate index combinations are always merged.
    blocks:
        ``(m, W)`` dense array; row ``p`` is the dense block attached to
        ``indices[p]``, of width ``W = prod`` of the ranks of the multiplied
        modes (ordered so that earlier multiplied modes vary fastest).
    remaining_modes:
        Original mode ids (into the source tensor) of the index columns.
    multiplied_modes:
        Original mode ids folded into the dense block, in the order that
        defines the block layout.
    shape:
        Sizes of the remaining modes.
    ranks:
        Widths contributed by each multiplied mode (same order as
        ``multiplied_modes``).
    """

    indices: np.ndarray
    blocks: np.ndarray
    remaining_modes: Tuple[int, ...]
    multiplied_modes: Tuple[int, ...]
    shape: Tuple[int, ...]
    ranks: Tuple[int, ...]

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def block_width(self) -> int:
        return int(self.blocks.shape[1])

    def matricize_remaining(self, mode: int) -> np.ndarray:
        """Dense matrix whose rows are the given remaining mode, columns the block.

        Only valid when a single remaining mode is left; this is the matrix
        handed to the TRSVD step by TTM-chain style algorithms.
        """
        if len(self.remaining_modes) != 1:
            raise ValueError(
                "matricize_remaining requires exactly one remaining mode, "
                f"got {len(self.remaining_modes)}"
            )
        if self.remaining_modes[0] != mode:
            raise ValueError(
                f"remaining mode is {self.remaining_modes[0]}, not {mode}"
            )
        out = np.zeros((self.shape[0], self.block_width), dtype=self.blocks.dtype)
        if self.nnz:
            out[self.indices[:, 0]] += self.blocks
        return out


def _merge_duplicates(indices: np.ndarray, blocks: np.ndarray,
                      shape: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Sum dense blocks that share the same remaining-mode coordinates."""
    if indices.shape[0] == 0:
        return indices, blocks
    order, first = colmajor_groups(indices, shape)
    starts = np.flatnonzero(first)
    merged_blocks = np.add.reduceat(blocks[order], starts, axis=0)
    merged_indices = indices[order[starts]]
    return merged_indices, merged_blocks


def sparse_ttm(
    tensor: SparseTensor,
    matrix: np.ndarray,
    mode: int,
    *,
    merge: bool = True,
) -> SemiSparseTensor:
    """Single sparse TTM ``X ×_n Uᵀ`` (``U`` is ``I_n × R_n``).

    The result keeps COO structure over the other modes and a dense length
    ``R_n`` block per surviving coordinate (equation (3) of the paper).
    """
    mode = check_axis(mode, tensor.order)
    matrix = as_supported_float(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != tensor.shape[mode]:
        raise ValueError(
            f"matrix must be ({tensor.shape[mode]} x R), got {matrix.shape}"
        )
    remaining = tuple(m for m in range(tensor.order) if m != mode)
    rem_idx = tensor.indices[:, list(remaining)]
    blocks = matrix[tensor.indices[:, mode]] * tensor.values[:, None]
    shape = tuple(tensor.shape[m] for m in remaining)
    if merge:
        rem_idx, blocks = _merge_duplicates(rem_idx, blocks, shape)
    return SemiSparseTensor(
        indices=rem_idx,
        blocks=blocks,
        remaining_modes=remaining,
        multiplied_modes=(mode,),
        shape=shape,
        ranks=(matrix.shape[1],),
    )


def _semi_ttm(semi: SemiSparseTensor, matrix: np.ndarray, mode: int,
              *, merge: bool = True) -> SemiSparseTensor:
    """Multiply a semi-sparse tensor by ``Uᵀ`` in one of its remaining modes."""
    if mode not in semi.remaining_modes:
        raise ValueError(f"mode {mode} is not a remaining mode of this tensor")
    col = semi.remaining_modes.index(mode)
    matrix = as_supported_float(matrix)
    if matrix.shape[0] != semi.shape[col]:
        raise ValueError(
            f"matrix must have {semi.shape[col]} rows, got {matrix.shape[0]}"
        )
    # New dense block: kron(existing block, U[i_mode, :]) with the existing
    # (earlier-multiplied) modes varying fastest.
    gathered = matrix[semi.indices[:, col]]
    blocks = batch_kron_rows([semi.blocks, gathered])
    keep_cols = [c for c in range(len(semi.remaining_modes)) if c != col]
    indices = semi.indices[:, keep_cols]
    remaining = tuple(m for m in semi.remaining_modes if m != mode)
    shape = tuple(semi.shape[c] for c in keep_cols)
    if merge and indices.shape[1] > 0:
        indices, blocks = _merge_duplicates(indices, blocks, shape)
    elif merge and indices.shape[1] == 0 and indices.shape[0] > 1:
        blocks = blocks.sum(axis=0, keepdims=True)
        indices = indices[:1]
    return SemiSparseTensor(
        indices=indices,
        blocks=blocks,
        remaining_modes=remaining,
        multiplied_modes=semi.multiplied_modes + (mode,),
        shape=shape,
        ranks=semi.ranks + (matrix.shape[1],),
    )


def sparse_ttm_chain(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    skip: Optional[int] = None,
    *,
    merge: bool = True,
) -> SemiSparseTensor:
    """TTM chain ``X ×_{t != skip} U_tᵀ`` evaluated one mode at a time.

    This is the conventional (non nonzero-based) evaluation scheme: each TTM
    shrinks one mode to its rank and densifies the partial result, which is
    what the MET-style baseline uses.  Modes are processed in increasing
    order; ``skip`` (if given) is left un-multiplied.
    """
    semi: Optional[SemiSparseTensor] = None
    for mode in range(tensor.order):
        if skip is not None and mode == skip:
            continue
        matrix = factors[mode]
        if matrix is None:
            raise ValueError(f"factor for mode {mode} is required but is None")
        if semi is None:
            semi = sparse_ttm(tensor, matrix, mode, merge=merge)
        else:
            semi = _semi_ttm(semi, matrix, mode, merge=merge)
    if semi is None:
        raise ValueError("sparse_ttm_chain must multiply at least one mode")
    return semi


def sparse_ttv(tensor: SparseTensor, vector: np.ndarray, mode: int) -> SparseTensor:
    """Sparse tensor-times-vector: contract ``mode`` with ``vector``.

    Returns an order ``N - 1`` sparse tensor (duplicates merged).
    """
    mode = check_axis(mode, tensor.order)
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if vector.shape[0] != tensor.shape[mode]:
        raise ValueError(
            f"vector of length {vector.shape[0]} cannot contract mode {mode} "
            f"of size {tensor.shape[mode]}"
        )
    if tensor.order == 1:
        raise ValueError("cannot TTV a 1-mode tensor down to order 0")
    remaining = [m for m in range(tensor.order) if m != mode]
    new_vals = tensor.values * vector[tensor.indices[:, mode]]
    new_idx = tensor.indices[:, remaining]
    new_shape = tuple(tensor.shape[m] for m in remaining)
    return SparseTensor(new_idx, new_vals, new_shape, copy=False, sum_duplicates=True)
