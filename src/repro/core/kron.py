"""Row-wise Kronecker products.

The nonzero-based TTMc formulation (Algorithm 2 / equation (4) of the paper)
scales, for every nonzero, the Kronecker product of one row from each factor
matrix.  These helpers compute that product for a single nonzero and — much
more importantly — for a *batch* of nonzeros at once so the numeric TTMc can
be expressed with a handful of NumPy calls instead of a Python loop per
nonzero.

Convention: the result is laid out so that the *first* vector in the list
varies fastest, matching the column-major (Kolda-Bader) matricization used by
:mod:`repro.core.dense` and :meth:`repro.core.sparse_tensor.SparseTensor.matricize`.
Equivalently, ``kron_rows([a, b, c]) == np.kron(c, np.kron(b, a))``.

:func:`segment_kron_sum` is the accumulation half of the TTMc: it sums the
row-wise Kronecker products of two operands over CSR segments as a handful
of sparse × dense products, so the full-width rows are never built.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse

from repro.core.sparse_tensor import SUPPORTED_DTYPES

__all__ = [
    "kron_rows",
    "batch_kron_rows",
    "kron_row_length",
    "kron_dtype",
    "segment_matrix",
    "segment_kron_sum",
]


def kron_dtype(*arrays) -> np.dtype:
    """Compute dtype of a Kronecker product of the given operands.

    Policy-dtype inputs keep their (promoted) precision — an all-``float32``
    batch stays ``float32``, a mixed batch computes in ``float64`` — while any
    operand outside the policy (integer, bool, half or extended precision)
    promotes the whole product to ``float64`` exactly as before the dtype
    policy existed.
    """
    dtypes = [np.asarray(a).dtype for a in arrays]
    if not dtypes or not all(d in SUPPORTED_DTYPES for d in dtypes):
        return np.dtype(np.float64)
    return np.dtype(np.result_type(*dtypes))


def kron_row_length(widths: Sequence[int]) -> int:
    """Length of the Kronecker product of rows with the given widths."""
    out = 1
    for w in widths:
        out *= int(w)
    return out


def kron_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of 1-D row vectors with the first operand fastest.

    ``kron_rows([a])`` returns a copy of ``a``; an empty list yields ``[1.0]``
    (the empty product), which keeps order-1 corner cases well defined.
    """
    dtype = kron_dtype(*rows)
    result = np.ones(1, dtype=dtype)
    for row in rows:
        row = np.asarray(row, dtype=dtype).ravel()
        # new[j * len(result) + i] = row[j] * result[i]  -> earlier rows fastest
        result = (row[:, None] * result[None, :]).ravel()
    return result


def batch_kron_rows(
    blocks: Sequence[np.ndarray], *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-wise Kronecker product of a batch.

    Each element of ``blocks`` is an array of shape ``(m, R_t)`` holding one
    row per nonzero; the result has shape ``(m, prod R_t)`` with row ``p``
    equal to ``kron_rows([blocks[0][p], blocks[1][p], ...])``.

    This is the workhorse of the numeric TTMc: the factor rows for a block of
    nonzeros are gathered with fancy indexing and combined here without any
    Python-level per-nonzero loop.  ``out``, when given, receives the final
    (largest) expansion step in place — the engine's workspace pool passes a
    reused ``(m, prod R_t)`` scratch buffer here so the hot loop performs no
    full-width allocation.
    """
    if len(blocks) == 0:
        raise ValueError("batch_kron_rows needs at least one block")
    dtype = kron_dtype(*blocks)
    arrays: List[np.ndarray] = [
        np.ascontiguousarray(np.asarray(b, dtype=dtype)) for b in blocks
    ]
    m = arrays[0].shape[0]
    width = 1
    for a in arrays:
        if a.ndim != 2:
            raise ValueError("each block must be 2-D (nonzeros x rank)")
        if a.shape[0] != m:
            raise ValueError("all blocks must have the same number of rows")
        width *= a.shape[1]
    if out is not None and (out.shape != (m, width) or out.dtype != dtype):
        raise ValueError(
            f"out has shape {out.shape} / dtype {out.dtype}, expected "
            f"{(m, width)} / {dtype}"
        )
    if len(arrays) == 1:
        if out is None:
            return arrays[0]
        np.copyto(out, arrays[0])
        return out
    # result: (m, W), block: (m, R)  ->  (m, R * W) with result fastest.
    # einsum forms the same products as the broadcast multiply
    # ``block[:, :, None] * result[:, None, :]``, with faster inner loops
    # over the short rank axes.
    result = arrays[0]
    for block in arrays[1:-1]:
        result = np.einsum("ij,ik->ikj", result, block).reshape(m, -1)
    last = arrays[-1]
    if out is None:
        return np.einsum("ij,ik->ikj", result, last).reshape(m, -1)
    np.einsum(
        "ij,ik->ikj", result, last,
        out=out.reshape(m, last.shape[1], result.shape[1]),
    )
    return out


def segment_matrix(segptr: np.ndarray, data: np.ndarray) -> scipy.sparse.csr_matrix:
    """The CSR matrix ``A`` whose row ``s`` holds positions ``segptr[s]:segptr[s+1]``.

    ``A @ B`` sums the rows of ``B`` over every segment, weighted by
    ``data`` (length ``segptr[-1]``).  Writing ``A.data[:]`` re-weights the
    matrix without rebuilding it.
    """
    m, num_segments = data.shape[0], segptr.shape[0] - 1
    # scipy stores CSR indices as int32 whenever they fit, and would scan
    # and convert int64 index arrays on every construction.
    index_dtype = (
        np.int32 if max(m, num_segments) <= np.iinfo(np.int32).max else np.int64
    )
    return scipy.sparse.csr_matrix(
        (data, np.arange(m, dtype=index_dtype), segptr.astype(index_dtype)),
        shape=(num_segments, m),
    )


def segment_kron_sum(
    segptr: np.ndarray,
    left: np.ndarray,
    right: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Segment sums of weighted row-wise Kronecker products.

    Computes, for every segment ``s`` of the CSR pointer ``segptr``
    (``segptr[0] == 0``, ``segptr[-1] == len(left)``),

        ``out[s] = Σ_{z ∈ [segptr[s], segptr[s+1])} w_z · kron_rows([left[z], right[z]])``

    with ``w_z = 1`` when ``weights`` is ``None`` and ``kron_rows([left[z]])``
    when ``right`` is ``None`` (a plain segment-sum).  The segments form a
    CSR matrix ``A`` (row ``s`` holds positions ``segptr[s]:segptr[s+1]``),
    so column block ``c`` of the result is ``A(data=w · right[:, c]) @ left``;
    the ``m × (R_left · R_right)`` Kronecker rows are never materialized.  The
    loop runs over the narrower operand's columns (writing strided columns
    when that is ``left``), so a width-1 operand costs a single product.
    Empty segments yield zero rows.  The compute dtype follows
    :func:`kron_dtype` (all-``float32`` operands stay ``float32``); ``out``,
    when given, must have exactly the result's shape and dtype.
    """
    segptr = np.asarray(segptr)
    operands = [a for a in (left, right, weights) if a is not None]
    dtype = kron_dtype(*operands)
    left = np.ascontiguousarray(left, dtype=dtype)
    m, left_width = left.shape
    right_width = 1 if right is None else right.shape[1]
    num_segments = segptr.shape[0] - 1
    shape = (num_segments, left_width * right_width)
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif out.shape != shape or out.dtype != dtype:
        raise ValueError(
            f"out has shape {out.shape} / dtype {out.dtype}, expected "
            f"{shape} / {dtype}"
        )
    if segptr[0] != 0 or segptr[-1] != m:
        raise ValueError(f"segptr must run from 0 to {m}, got {segptr[0]}..{segptr[-1]}")
    if m == 0:
        out[...] = 0
        return out

    if right is None:
        dense, narrow, blocks = left, None, [np.s_[:, :]]
    else:
        right = np.asarray(right, dtype=dtype)
        if right.shape[0] != m:
            raise ValueError("left and right must have the same number of rows")
        if left_width >= right_width:
            # Column block c (width R_left) is A(w · right[:, c]) @ left.
            dense, narrow = left, right
            blocks = [np.s_[:, c * left_width:(c + 1) * left_width]
                      for c in range(right_width)]
        else:
            # Left varies fastest: columns j, j + R_left, ... are
            # A(w · left[:, j]) @ right.
            dense, narrow = np.ascontiguousarray(right), left
            blocks = [np.s_[:, j::left_width] for j in range(left_width)]
    if narrow is not None:
        data = np.empty(m, dtype=dtype)
    elif weights is None:
        data = np.ones(m, dtype=dtype)
    else:
        data = np.asarray(weights, dtype=dtype)
    mat = segment_matrix(segptr, data)
    for k, block in enumerate(blocks):
        if narrow is not None:
            if weights is None:
                mat.data[:] = narrow[:, k]
            else:
                np.multiply(weights, narrow[:, k], out=mat.data)
        out[block] = mat @ dense
    return out
