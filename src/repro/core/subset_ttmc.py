"""Subset-TTMc kernels: partial TTM chains over arbitrary mode subsets.

The per-mode TTMc (:mod:`repro.core.ttmc`) multiplies *all* modes but one in
a single pass over the nonzeros.  The dimension-tree evaluation
(:mod:`repro.engine.dimtree`) instead materializes *partial* chains — the
tensor multiplied by the factors of a subset ``M`` of the modes — and reuses
them between the modes whose TTMc shares that subset.  A partial chain is a
*semi-sparse* tensor: sparse over the free modes ``F = {0..N-1} \\ M`` and
dense over the multiplied ones, stored here as

* a :class:`FiberGrouping` — the distinct index tuples over ``F`` (the
  fibers) plus the CSR-style map from a finer grouping's fibers onto them,
  exactly the symbolic structure of the paper's update lists generalized
  from single modes to mode subsets; and
* a dense *payload* of shape ``(num_fibers, ∏_{t∈M} R_t)`` whose row for
  fiber ``(i_t)_{t∈F}`` equals ``Σ x · kron(U_t[i_t, :] for t ∈ M)`` over
  the nonzeros sharing that fiber.

Payload columns follow the same convention as :func:`repro.core.kron.kron_rows`
applied to the multiplied modes in *ascending* order with the lowest mode
varying fastest.  Because the dimension tree splits contiguous mode ranges,
a node's multiplied set is always a low block ``{0..lo-1}`` plus a high block
``{hi+1..N-1}``, and refining a chain by the sibling's (contiguous, middle)
range inserts the sibling's Kronecker block between the two.
:func:`edge_update_groups` reduces those products straight into the child
payload as CSR sparse × dense products — the segment sums of the COO TTMc
(:func:`repro.core.kron.segment_kron_sum`) — so no child-width row is ever
built per parent fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.kron import batch_kron_rows, kron_row_length, segment_matrix
from repro.core.symbolic import stable_radix_order
from repro.core.ttmc import (
    default_block_size,
    segment_chunks,
    write_kron_row_sums,
    write_segment_sums,
)

__all__ = [
    "FiberGrouping",
    "group_fibers",
    "group_fibers_presorted",
    "subset_widths",
    "edge_update_groups",
]


@dataclass(frozen=True)
class FiberGrouping:
    """Distinct fibers of a mode subset and the map from parent fibers onto them.

    Attributes
    ----------
    indices:
        ``(num_groups, k)`` array of the distinct index tuples, in the
        lexicographic order produced by :func:`group_fibers`.
    perm:
        Permutation of parent-fiber positions such that positions mapping to
        the same group are contiguous, ordered consistently with ``indices``.
    segptr:
        Array of length ``num_groups + 1``; parent positions for group ``g``
        occupy ``perm[segptr[g]:segptr[g + 1]]``.
    contiguous:
        True when ``perm`` is the identity — group ``g``'s parent positions
        are literally the slice ``segptr[g]:segptr[g + 1]``.  Numeric passes
        may then read the parent payload through views instead of
        gathers.  :func:`group_fibers_presorted` always produces contiguous
        groupings; :func:`group_fibers` never claims the flag (even when its
        sort happens to be the identity) so the flag stays a structural
        guarantee, not a data-dependent accident.
    """

    indices: np.ndarray
    perm: np.ndarray
    segptr: np.ndarray
    contiguous: bool = False

    @property
    def num_groups(self) -> int:
        return int(self.indices.shape[0])

    def group_sizes(self) -> np.ndarray:
        """Number of parent fibers merged into each group."""
        return np.diff(self.segptr)


def group_fibers(index_columns: np.ndarray) -> FiberGrouping:
    """Group rows of an ``(m, k)`` index array by their tuple value.

    A single stable radix sort (:func:`repro.core.symbolic.stable_radix_order`,
    the order ``np.lexsort`` gives), done once per tree edge and reused by
    every numeric pass — generalizing :func:`repro.core.symbolic.symbolic_ttmc`
    from one mode to a mode subset.
    """
    cols = np.asarray(index_columns, dtype=np.int64)
    if cols.ndim != 2:
        raise ValueError("index_columns must be 2-D (fibers x modes)")
    m, k = cols.shape
    if k == 0:
        raise ValueError("cannot group fibers over an empty mode subset")
    if m == 0:
        return FiberGrouping(
            indices=np.empty((0, k), dtype=np.int64),
            perm=np.empty(0, dtype=np.int64),
            segptr=np.zeros(1, dtype=np.int64),
        )
    # The lowest mode is the most significant, so groups come out in
    # ascending tuple order.
    perm = stable_radix_order(
        [cols[:, c] for c in range(k)], cols.max(axis=0) + 1
    )
    sorted_cols = cols[perm]
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.any(sorted_cols[1:] != sorted_cols[:-1], axis=1, out=boundary[1:])
    starts = np.flatnonzero(boundary).astype(np.int64)
    segptr = np.concatenate([starts, [m]]).astype(np.int64)
    return FiberGrouping(indices=sorted_cols[boundary], perm=perm, segptr=segptr)


def group_fibers_presorted(index_columns: np.ndarray) -> FiberGrouping:
    """Group rows that are already in ascending lexicographic order.

    The CSF construction's change-flag walk, lifted to tree edges: when the
    parent's index tuples are lex-sorted, any *prefix* of its columns is
    non-decreasing too, so equal tuples are already contiguous and in order.
    The permutation is then the identity and the segment boundaries fall out
    of one vectorized row-change comparison — no sort.  This is how a
    CSF-sourced dimension tree derives every left-child grouping (and, since
    :func:`group_fibers` emits sorted tuples, every deeper grouping of a COO
    tree's sorted internal nodes).

    Equal-valued input rows must be adjacent; rows out of order would be
    silently split into separate groups, so callers are responsible for the
    sortedness invariant.
    """
    cols = np.asarray(index_columns, dtype=np.int64)
    if cols.ndim != 2:
        raise ValueError("index_columns must be 2-D (fibers x modes)")
    m, k = cols.shape
    if k == 0:
        raise ValueError("cannot group fibers over an empty mode subset")
    if m == 0:
        return FiberGrouping(
            indices=np.empty((0, k), dtype=np.int64),
            perm=np.empty(0, dtype=np.int64),
            segptr=np.zeros(1, dtype=np.int64),
            contiguous=True,
        )
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.any(cols[1:] != cols[:-1], axis=1, out=boundary[1:])
    starts = np.flatnonzero(boundary).astype(np.int64)
    segptr = np.concatenate([starts, [m]]).astype(np.int64)
    return FiberGrouping(
        indices=cols[boundary],
        perm=np.arange(m, dtype=np.int64),
        segptr=segptr,
        contiguous=True,
    )


def subset_widths(
    ranks: Sequence[Optional[int]], lo: int, hi: int
) -> Tuple[int, int]:
    """Dense widths of the low/high multiplied blocks around free range [lo, hi].

    Returns ``(∏_{t < lo} R_t, ∏_{t > hi} R_t)``.  Ranks inside the free
    range may be ``None`` (they are not multiplied and do not contribute).
    """
    lo_width = kron_row_length([int(r) for r in ranks[:lo]])
    hi_width = kron_row_length([int(r) for r in ranks[hi + 1 :]])
    return lo_width, hi_width


def _middle_segment_sums(
    segptr: np.ndarray,
    payload: np.ndarray,
    sib: np.ndarray,
    lo_width: int,
    hi_width: int,
    out: np.ndarray,
) -> None:
    """Segment sums of ``payload ⊗ sib`` with ``sib`` between the payload's blocks.

    ``payload`` has ``lo_width · hi_width`` columns (low block fastest) and
    ``out`` (C-contiguous, one row per segment) the child columns: low
    block fastest, then ``sib``, then the high block.  One CSR product per
    column of the narrower operand writes its slice of the
    ``(segments, hi, w, lo)`` view of ``out``.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    m, w = sib.shape
    segments = segptr.shape[0] - 1
    view = out.reshape(segments, hi_width, w, lo_width)
    mat = segment_matrix(segptr, np.empty(m, dtype=out.dtype))
    if w <= payload.shape[1]:
        for k in range(w):
            mat.data[:] = sib[:, k]
            view[:, :, k, :] = (mat @ payload).reshape(segments, hi_width, lo_width)
    else:
        for c in range(payload.shape[1]):
            h, l = divmod(c, lo_width)
            mat.data[:] = payload[:, c]
            view[:, h, :, l] = mat @ sib


def edge_update_groups(
    grouping: FiberGrouping,
    group_start: int,
    group_stop: int,
    parent_payload: np.ndarray,
    parent_index_cols: np.ndarray,
    sibling_cols: Sequence[int],
    sibling_factors: Sequence[np.ndarray],
    lo_width: int,
    hi_width: int,
    out: np.ndarray,
) -> np.ndarray:
    """Numeric refinement of one tree edge for a contiguous range of groups.

    For each group ``g`` in ``[group_start, group_stop)`` this computes

        ``out[g - group_start] = Σ_p  payload[p] ⊗ kron(U_t[i_t(p)], t ∈ S)``

    over the parent fibers ``p`` mapping to ``g``, where ``S`` is the sibling
    mode set (``sibling_cols`` are its columns in ``parent_index_cols``,
    ``sibling_factors`` its factor matrices in the same ascending-mode order)
    and the sibling block lands between the payload's low and high blocks.

    Each block of parent fibers is reduced straight into ``out`` by CSR
    sparse × dense products; no ``(fibers × child width)`` row is built.  A
    width-1 payload (every root edge) is the COO TTMc block with the
    payload as weights (:func:`repro.core.ttmc.write_kron_row_sums`); an
    empty high or low block makes the child row ``kron(payload, sibling)``
    or ``kron(sibling, payload)``, one :func:`repro.core.kron.segment_kron_sum`;
    only trees of order ≥ 6 have edges with both blocks non-empty.

    Every row of ``out`` (C-contiguous) is assigned.  ``out`` covers only
    the requested group range, so disjoint ranges can be filled concurrently
    by different workers — the row-parallel, lock-free range body of the
    dimension-tree plan (:meth:`repro.engine.dimtree.DimensionTree.body`).
    """
    if group_stop <= group_start:
        return out
    if parent_payload.shape[1] != lo_width * hi_width:
        raise ValueError(
            f"payload width {parent_payload.shape[1]} does not factor as "
            f"lo {lo_width} x hi {hi_width}"
        )
    # A contiguous grouping's perm is the identity: parent fibers for the
    # requested range are literally rows segptr[0]:segptr[-1], so each block
    # below reads the payload and index columns through slice views instead
    # of gathers.
    # The block order, segment boundaries and accumulation order are the same
    # either way, so both paths produce bit-identical payloads.
    segptr = grouping.segptr[group_start : group_stop + 1]
    block_nnz = default_block_size(out.shape[1], itemsize=out.dtype.itemsize)

    for start, stop, s_lo, s_hi, local in segment_chunks(segptr, block_nnz):
        if grouping.contiguous:
            pay = parent_payload[start:stop]
            idx_rows = parent_index_cols[start:stop]
            blocks = [
                np.take(factor, idx_rows[:, col], axis=0)
                for col, factor in zip(sibling_cols, sibling_factors)
            ]
        else:
            chunk = grouping.perm[start:stop]
            pay = np.take(parent_payload, chunk, axis=0)
            blocks = [
                np.take(factor, parent_index_cols[chunk, col], axis=0)
                for col, factor in zip(sibling_cols, sibling_factors)
            ]
        rows, continued = slice(s_lo, s_hi), segptr[s_lo] < start
        if pay.shape[1] == 1:
            write_kron_row_sums(out, rows, continued, local, blocks, pay[:, 0])
            continue
        sib = batch_kron_rows(blocks)
        if hi_width == 1:
            write_segment_sums(out, rows, continued, local, pay, sib)
        elif lo_width == 1:
            write_segment_sums(out, rows, continued, local, sib, pay)
        else:
            # As in write_segment_sums: a segment the previous block began
            # adds this block's sum to its row.
            carry = out[s_lo].copy() if continued else None
            _middle_segment_sums(local, pay, sib, lo_width, hi_width, out[rows])
            if continued:
                out[s_lo] += carry
    return out
