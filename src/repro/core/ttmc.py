"""Nonzero-based TTMc (tensor-times-matrix chain) kernels.

This implements the paper's equation (4) / Algorithm 2: for the target mode
``n``, every nonzero ``x[i_1, ..., i_N]`` contributes

    ``x * kron(U_t[i_t, :] for t != n)``

to row ``i_n`` of the matricized result ``Y_(n)`` (an ``I_n x prod_{t != n} R_t``
dense matrix); only its non-empty rows ``J_n`` can be non-zero, and the
engine's plans compute just those, as a ``|J_n| × W`` block.  The kernels
here are the sequential building blocks; the shared-memory and distributed
layers parallelize *over rows* of ``Y_(n)`` using the symbolic structure
from :mod:`repro.core.symbolic`.

Performance notes (per the HPC-Python guides): there is no per-nonzero Python
loop.  Nonzeros are processed in blocks of the row-grouped order produced by
the symbolic step, whose ``rowptr`` is a CSR matrix: the accumulation into
``Y_(n)`` is a sparse × dense product.  The body reads a block's nonzeros as
a :class:`ModeStream` — the other modes' index columns, each contiguous, plus
the values, in update-list order.  Without a stored stream every block
gathers one from the tensor through ``perm`` (:func:`gather_stream`); a
:class:`~repro.engine.plans.COORowsPlan` keeps each mode's stream, fills it
during the mode's first TTMc and reads contiguous slices of it afterwards,
so later sweeps do no random row reads.  Factor rows are gathered with
``np.take(U_t, col, axis=0)``, which took a third of the time of ``U_t[col]``
on 65,536 × 5 rows on a 2-vCPU host; the first ``N − 2`` are combined
with :func:`repro.core.kron.batch_kron_rows` and
:func:`repro.core.kron.segment_kron_sum` folds in the last factor and the
values one column at a time, so the full ``∏R_t``-wide Kronecker row of a
nonzero is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.kron import (
    batch_kron_rows,
    kron_dtype,
    kron_row_length,
    segment_kron_sum,
)
from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import ModeSymbolic, symbolic_ttmc
from repro.util.validation import check_axis, check_same_order

__all__ = [
    "ModeStream",
    "ttmc_matricized",
    "ttmc_dtype",
    "ttmc_flops",
    "default_block_size",
    "gather_ranges",
    "segment_chunks",
    "write_segment_sums",
    "write_kron_row_sums",
    "gather_stream",
    "coo_segment_ttmc",
    "compiled_coo_ttmc",
    "coo_rows_range",
    "restrict_symbolic",
    "zeroed_out",
]

#: Upper bound on nonzeros processed per vectorized block.
_DEFAULT_BLOCK_NNZ = 65536


def default_block_size(
    kron_width: int, *, budget_bytes: int = 64 << 20, itemsize: int = 8
) -> int:
    """Pick a nonzero block size so a ``block × kron_width`` buffer stays under ``budget_bytes``."""
    kron_width = max(int(kron_width), 1)
    block = budget_bytes // (max(int(itemsize), 1) * kron_width)
    return int(min(_DEFAULT_BLOCK_NNZ, max(1024, block)))


def ttmc_dtype(tensor: SparseTensor, factors, mode: int) -> np.dtype:
    """Promoted compute dtype of a TTMc (float32 only when everything is)."""
    operands = [tensor.values] + [f for t, f in enumerate(factors) if t != mode]
    return kron_dtype(*[np.asarray(a) for a in operands if a is not None])


def gather_ranges(source: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``source[starts[r]:starts[r]+counts[r]]`` for all ``r`` (vectorized)."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=source.dtype)
    ends = np.cumsum(counts)
    begins = ends - counts
    offsets = np.repeat(starts - begins, counts)
    return source[np.arange(total, dtype=np.int64) + offsets]


def segment_chunks(segptr: np.ndarray, block_nnz: int):
    """Split the positions of CSR segments into blocks of at most ``block_nnz``.

    Yields ``(start, stop, s_lo, s_hi, local_segptr)``: positions
    ``[start, stop)`` cover segments ``[s_lo, s_hi)`` and ``local_segptr``
    (from 0 to ``stop − start``) is their extent inside the block — the
    ``segptr`` form :func:`repro.core.kron.segment_kron_sum` takes.  Every
    segment, empty ones included, belongs to at least one block.  A segment
    longer than a block is split over consecutive blocks; a block's first
    segment *continues* one from the previous block when
    ``segptr[s_lo] < start``.
    """
    segptr = np.asarray(segptr, dtype=np.int64)
    ends = segptr[1:]
    begin, end = int(segptr[0]), int(segptr[-1])
    for start in range(begin, end, block_nnz):
        stop = min(start + block_nnz, end)
        # Segments ending at or before ``start`` were finished by earlier
        # blocks; segments ending at or before ``stop`` finish here, plus
        # the one ``stop`` splits.
        s_lo = 0 if start == begin else int(np.searchsorted(ends, start, side="right"))
        s_hi = int(np.searchsorted(ends, stop, side="right"))
        if s_hi < ends.shape[0] and segptr[s_hi] < stop:
            s_hi += 1
        local = np.clip(segptr[s_lo:s_hi + 1], start, stop) - start
        yield start, stop, s_lo, s_hi, local


def write_segment_sums(
    out: np.ndarray,
    rows,
    continued: bool,
    segptr: np.ndarray,
    left: np.ndarray,
    right: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> None:
    """Assign one block's :func:`segment_kron_sum` rows to ``out[rows]``.

    ``rows`` (an index array or a slice) names the output row of every
    segment.  With ``continued`` the first segment finishes one an earlier
    block began, so its sum is added to that row instead.  Consecutive rows
    are written through a slice; when no row is continued the products
    land in ``out`` with no intermediate.
    """
    if not isinstance(rows, slice) and rows[-1] - rows[0] == rows.shape[0] - 1:
        rows = slice(int(rows[0]), int(rows[-1]) + 1)
    if isinstance(rows, slice) and not continued:
        segment_kron_sum(segptr, left, right, weights, out=out[rows])
        return
    sums = segment_kron_sum(segptr, left, right, weights)
    if continued:
        sums[0] += out[rows.start if isinstance(rows, slice) else rows[0]]
    out[rows] = sums


def write_kron_row_sums(
    out: np.ndarray,
    rows,
    continued: bool,
    segptr: np.ndarray,
    factor_rows: Sequence[np.ndarray],
    weights: np.ndarray,
) -> None:
    """Assign one block's weighted Kronecker-row segment sums to ``out[rows]``.

    Position ``z`` contributes ``weights[z] · kron_rows([B[z] for B in
    factor_rows])``: one gathered ``(m, R_t)`` factor block per multiplied
    mode, in ascending mode order, and one scalar per position (a nonzero's
    value, or a dimension-tree root fiber's).  The first ``len − 1`` blocks
    are combined with :func:`batch_kron_rows`; the last one and the weights
    go to :func:`repro.core.kron.segment_kron_sum` column by column, so the
    full-width Kronecker row is never built.  ``rows`` and ``continued`` are
    as in :func:`write_segment_sums`.
    """
    if len(factor_rows) > 1:
        left, right = batch_kron_rows(factor_rows[:-1]), factor_rows[-1]
    else:
        left, right = factor_rows[0], None
    write_segment_sums(out, rows, continued, segptr, left, right, weights)


def _factor_widths(
    factors: Sequence[Optional[np.ndarray]], shape: Sequence[int], mode: int
) -> List[int]:
    widths = []
    for t, factor in enumerate(factors):
        if t == mode:
            continue
        if factor is None:
            raise ValueError(f"factor for mode {t} is required but is None")
        factor = np.asarray(factor)
        if factor.ndim != 2:
            raise ValueError(f"factor for mode {t} must be 2-D")
        if factor.shape[0] != shape[t]:
            raise ValueError(
                f"factor for mode {t} has {factor.shape[0]} rows but the tensor "
                f"mode has size {shape[t]}"
            )
        widths.append(factor.shape[1])
    return widths


def ttmc_flops(tensor_nnz: int, ranks: Sequence[int], mode: int) -> int:
    """Rough flop count of a mode-``n`` nonzero-based TTMc.

    Each nonzero builds the Kronecker product of ``N - 1`` factor rows
    incrementally and then performs one scaled accumulation of length
    ``prod_{t != n} R_t``.  This is the work measure ``W_TTMc`` the paper
    reports per process in Table III (up to a constant factor).
    """
    width = 1
    flops = 0
    for t, r in enumerate(ranks):
        if t == mode:
            continue
        width *= int(r)
        flops += width
    return int(tensor_nnz) * (flops + 2 * width)


def compiled_coo_ttmc(
    table,
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    positions: np.ndarray,
    segptr: np.ndarray,
    target: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """The compiled-tier counterpart of :func:`coo_segment_ttmc`.

    ``table`` is a :class:`repro.kernels.KernelTable`; its fused kernel makes
    one pass per segment and *assigns* ``out[target[s]]``.
    """
    cols = np.asarray(
        [t for t in range(tensor.order) if t != mode], dtype=np.int64
    )
    arrays = [
        np.ascontiguousarray(np.asarray(factors[t], dtype=out.dtype))
        for t in cols
    ]
    table.coo_row_block_ttmc(
        tensor.indices,
        tensor.values,
        table.make_factor_list(arrays),
        cols,
        np.ascontiguousarray(segptr, dtype=np.int64),
        np.ascontiguousarray(positions, dtype=np.int64),
        np.ascontiguousarray(target, dtype=np.int64),
        out,
    )
    return out


@dataclass(frozen=True)
class ModeStream:
    """Nonzeros of one mode in update-list order, column by column.

    ``cols`` is ``(N − 1, m)``: row ``k`` holds the index column of the
    ``k``-th other mode (ascending mode order), contiguous; ``values`` holds
    the ``m`` values.  Slicing a stream slices its positions.
    """

    cols: np.ndarray
    values: np.ndarray

    def __getitem__(self, positions: slice) -> "ModeStream":
        return ModeStream(self.cols[:, positions], self.values[positions])


def gather_stream(
    tensor: SparseTensor,
    mode: int,
    positions: np.ndarray,
    out: Optional[ModeStream] = None,
) -> ModeStream:
    """The nonzeros at ``positions`` as a :class:`ModeStream` of ``mode``.

    One ``np.take`` of the index rows, then a copy per column, written into
    ``out`` when given (a plan's stream slice, whose index columns may be
    int32) and into fresh arrays otherwise.
    """
    if out is None:
        out = ModeStream(
            np.empty((tensor.order - 1, positions.shape[0]), tensor.indices.dtype),
            np.empty(positions.shape[0], tensor.values.dtype),
        )
    idx = np.take(tensor.indices, positions, axis=0)
    others = [t for t in range(tensor.order) if t != mode]
    for col, t in zip(out.cols, others):
        col[...] = idx[:, t]
    np.take(tensor.values, positions, out=out.values)
    return out


def coo_segment_ttmc(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    positions: np.ndarray,
    segptr: np.ndarray,
    out: np.ndarray,
    *,
    target: Optional[np.ndarray] = None,
    stream: Optional[ModeStream] = None,
    filled: bool = False,
) -> np.ndarray:
    """The numpy-tier COO TTMc body over CSR-grouped nonzeros.

    Segment ``s`` is the nonzeros ``positions[segptr[s]:segptr[s + 1]]``
    (``segptr[0] == 0``); its TTMc row is *assigned* to ``out[target[s]]``,
    or to ``out[s]`` when ``target`` is ``None`` — the compiled kernel's
    contract (:func:`compiled_coo_ttmc`).  Blocks of
    :func:`default_block_size` nonzeros (their ``(segments × ∏R_t)`` sums
    kept near 64 MB) read their index columns and values as a
    :class:`ModeStream` block, take the factor rows and reduce them with the
    values as weights (:func:`write_kron_row_sums`, which the dimension
    tree's root edges share).  ``stream`` lines up with ``positions``: when
    ``filled`` the blocks slice it, otherwise each block gathers its
    nonzeros from ``tensor`` into it (:func:`gather_stream`); without a
    stream they gather into temporaries.  Called through
    :func:`coo_rows_range`.
    """
    dtype = out.dtype
    factor_arrays = [
        np.asarray(factors[t], dtype=dtype) for t in range(tensor.order) if t != mode
    ]
    block_nnz = default_block_size(out.shape[1], itemsize=dtype.itemsize)
    for start, stop, s_lo, s_hi, local in segment_chunks(segptr, block_nnz):
        block = None if stream is None else stream[start:stop]
        if block is None or not filled:
            block = gather_stream(tensor, mode, positions[start:stop], out=block)
        write_kron_row_sums(
            out,
            slice(s_lo, s_hi) if target is None else target[s_lo:s_hi],
            segptr[s_lo] < start,
            local,
            [np.take(f, col, axis=0) for f, col in zip(factor_arrays, block.cols)],
            block.values,
        )
    return out


def ttmc_matricized(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    symbolic: Optional[ModeSymbolic] = None,
    rows: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    kernel: str = "numpy",
) -> np.ndarray:
    """Mode-``n`` matricized TTMc result ``Y_(n) = (X ×_{-n} Uᵀ)_(n)``.

    Parameters
    ----------
    tensor:
        The sparse input tensor ``X`` (or a rank-local portion of it).
    factors:
        One factor matrix per mode (``I_t × R_t``); the entry for ``mode`` is
        ignored and may be ``None``.
    mode:
        The mode that is *not* multiplied (the rows of the result).
    symbolic:
        Pre-built update lists for ``mode`` (built on the fly when omitted).
        Reusing this across HOOI iterations is the point of the symbolic step.
    rows:
        Optional subset of mode-``n`` indices to compute; the other rows of
        the output stay zero.
    out:
        Optional preallocated ``(I_n, prod R_t)`` output buffer (zeroed here).
    kernel:
        Implementation tier of the inner loop: ``"numpy"`` (default — the
        blocked gather + sparse × dense segment-sum of
        :func:`coo_segment_ttmc`; without a plan every call gathers its
        nonzeros) or ``"numba"`` (:mod:`repro.kernels` — one fused pass per
        output row).  Same numerics up to floating-point reassociation.

    Returns
    -------
    ndarray of shape ``(I_n, prod_{t != n} R_t)``.
    """
    mode = check_axis(mode, tensor.order)
    check_same_order(tensor.order, factors, "factors")
    widths = _factor_widths(factors, tensor.shape, mode)
    width = kron_row_length(widths)
    n_rows = tensor.shape[mode]
    dtype = ttmc_dtype(tensor, factors, mode)

    out = zeroed_out(out, (n_rows, width), dtype)
    if tensor.nnz == 0:
        return out

    if symbolic is None:
        symbolic = symbolic_ttmc(tensor, mode)
    elif symbolic.mode != mode or symbolic.nnz != tensor.nnz:
        raise ValueError("symbolic data does not match the tensor/mode")

    if rows is not None:
        symbolic = restrict_symbolic(
            symbolic, np.flatnonzero(np.isin(symbolic.rows, rows))
        )
    return coo_rows_range(
        tensor, factors, mode, symbolic, 0, symbolic.num_rows, out, kernel=kernel,
    )


def zeroed_out(out: Optional[np.ndarray], shape, dtype) -> np.ndarray:
    """``out`` checked and zeroed, or a new zeroed full ``Y_(n)`` buffer."""
    if out is None:
        return np.zeros(shape, dtype=dtype)
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ValueError(
            f"out has shape {out.shape} / dtype {out.dtype}, expected "
            f"{tuple(shape)} / {np.dtype(dtype)}"
        )
    out[:] = 0.0
    return out


def restrict_symbolic(symbolic: ModeSymbolic, positions: np.ndarray) -> ModeSymbolic:
    """Update lists of just the ``J_n`` entries at ``positions`` (sorted).

    The result's segments and rows are ``symbolic``'s at those positions,
    packed back to back.
    """
    positions = np.asarray(positions, dtype=np.int64)
    counts = symbolic.rowptr[positions + 1] - symbolic.rowptr[positions]
    rowptr = np.zeros(positions.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    return ModeSymbolic(
        mode=symbolic.mode,
        rows=symbolic.rows[positions],
        perm=gather_ranges(symbolic.perm, symbolic.rowptr[positions], counts),
        rowptr=rowptr,
    )


def coo_rows_range(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    symbolic: ModeSymbolic,
    start: int,
    stop: int,
    out: np.ndarray,
    *,
    compact: bool = False,
    kernel: str = "numpy",
    stream: Optional[ModeStream] = None,
    filled: bool = False,
) -> np.ndarray:
    """Assign ``out[symbolic.rows[start:stop]]``: the TTMc of a ``J_n`` range.

    The COO range body every execution model runs (the paper's Algorithm 3
    row task): the range's nonzeros are the slice
    ``perm[rowptr[start]:rowptr[stop]]`` and each target row is written by
    exactly this call, so disjoint ranges run concurrently without locks.
    ``(0, num_rows)`` is the whole sequential TTMc.  With ``compact``,
    ``out`` is the ``|J_n| × W`` block: the range fills rows ``start:stop``.
    ``kernel`` selects the
    numpy tier (:func:`coo_segment_ttmc`) or the fused compiled loops.
    ``stream`` is the whole mode's :class:`ModeStream` (aligned with
    ``perm``): the numpy tier reads the range's slice of it when ``filled``
    and fills that slice otherwise, so concurrent ranges fill disjoint
    slices.  The compiled tier reads ``positions`` and ignores it.
    """
    from repro.kernels import kernel_table

    lo, hi = int(symbolic.rowptr[start]), int(symbolic.rowptr[stop])
    positions = symbolic.perm[lo:hi]
    segptr = symbolic.rowptr[start:stop + 1] - lo
    dest = out[start:stop] if compact else out
    target = None if compact else symbolic.rows[start:stop]
    table = kernel_table(kernel)
    if table is not None:
        compiled_coo_ttmc(
            table, tensor, factors, mode, positions, segptr,
            np.arange(stop - start) if target is None else target, dest,
        )
    else:
        coo_segment_ttmc(
            tensor, factors, mode, positions, segptr, dest,
            target=target, stream=None if stream is None else stream[lo:hi],
            filled=filled,
        )
    return out
