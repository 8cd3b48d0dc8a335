"""Fiber-vectorized TTMc kernels over CSF trees.

The COO kernel (:func:`repro.core.ttmc.ttmc_matricized`) multiplies, for
every nonzero, all ``N−1`` factor rows into a width-``∏_{t≠n} R_t``
contribution to its output row — ``O(nnz · ∏R)`` multiply work no matter
how much structure the tensor has.  On a CSF tree the same sum factors over
the fiber hierarchy (the *pullup*, towards the root): the partial product of
the levels *below* a node is shared by everything above it, so each level is
one batched gather plus one
:func:`~repro.core.kron.segment_kron_sum` over the fiber extents
``fptr[level - 1]`` — sparse × dense products that fold the level's factor
rows into the reduction, so the ``nodes × width`` Kronecker rows of a level
are never built.  The widths grow level by level while the node counts
shrink — the expansion to the full ``∏R`` width happens over *merged
fibers*, not raw nonzeros.

A tree serves only the mode at its root (a
:func:`~repro.sparse.csf.rooted_mode_order` tree, one per mode in
:meth:`~repro.sparse.csf.CSFTensorSet.per_mode`): the sum then runs bottom-up
to the root, and the output rows are exactly the sorted, unique root fibers
``J_n`` — the layout the engine's CSF plan exploits: root-fiber slab
``[start, stop)`` is rows ``start..stop`` of the compact ``|J_n| × ∏R``
block, so thread and process workers write disjoint slices lock-free
(``make_chunks`` chunks of root fibers, mirroring the paper's row
decomposition).

There is no per-nonzero (or per-fiber) Python loop anywhere: every level is
a constant number of NumPy calls.  Results match ``ttmc_matricized`` in
shape, column order (mode-ascending, first mode fastest) and dtype promotion
to 1e-10 — the tree only reassociates the floating-point sums.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kron import kron_dtype, kron_row_length, segment_kron_sum
from repro.core.ttmc import _factor_widths, zeroed_out
from repro.sparse.csf import CSFTensor
from repro.util.validation import check_axis, check_same_order

__all__ = ["csf_ttmc_compact", "csf_ttmc_matricized"]


def _csf_dtype(
    csf: CSFTensor, factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.dtype:
    """Promoted compute dtype — the COO kernel's rule applied to the tree."""
    operands = [csf.values] + [f for t, f in enumerate(factors) if t != mode]
    return kron_dtype(*[np.asarray(a) for a in operands if a is not None])


def _cast_factors(
    csf: CSFTensor, factors: Sequence[Optional[np.ndarray]], mode: int, dtype
) -> List[Optional[np.ndarray]]:
    return [
        None if t == mode else np.asarray(factors[t], dtype=dtype)
        for t in range(csf.order)
    ]


def _level_ranges(csf: CSFTensor, start: int, stop: int) -> List[Tuple[int, int]]:
    """Node ranges of every level covered by root fibers ``[start, stop)``.

    Children of contiguous parents are contiguous (the tree is built from a
    lexicographic sort), so a root-fiber slab owns one contiguous node range
    per level — the property that makes slab workers independent.
    """
    ranges = [(start, stop)]
    for level in range(1, csf.order):
        lo, hi = ranges[-1]
        ranges.append(
            (int(csf.fptr[level - 1][lo]), int(csf.fptr[level - 1][hi]))
        )
    return ranges


def _leaf_values(
    csf: CSFTensor, lo: int, hi: int, dtype: np.dtype, workspace
) -> np.ndarray:
    """The ``(hi - lo, 1)`` leaf-level partial products (the values).

    When the tree's values already have the compute dtype this is a zero-copy
    view; a dtype-policy cast (float32 engine over float64 values) draws its
    destination from ``workspace`` so steady-state sweeps do not reallocate
    the cast buffer every call.
    """
    values = csf.values[lo:hi]
    if values.dtype == dtype:
        return values.reshape(-1, 1)
    if workspace is None:
        return np.ascontiguousarray(values, dtype=dtype).reshape(-1, 1)
    below = workspace.take((hi - lo, 1), dtype, tag=f"{csf._token}-vals")
    below[:, 0] = values
    return below


def _pullup(
    csf: CSFTensor,
    factor_arrays: Sequence[Optional[np.ndarray]],
    dtype: np.dtype,
    ranges: Sequence[Tuple[int, int]],
    workspace,
    table=None,
) -> np.ndarray:
    """Bottom-up partial products: one row per root fiber of the slab.

    Row ``p`` holds ``Σ_{z ∈ subtree(p)} vals[z] · kron(U rows of levels
    1..order−1)`` with deeper levels varying fastest.  Buffers draw from
    ``workspace`` (tagged per mode order and level, so repeated sweeps reuse
    them); pass ``None`` from concurrent workers.  ``table`` (a
    :class:`repro.kernels.KernelTable`) swaps each level's gather +
    segment-sum for the fused compiled walk over the fiber extents.
    """
    lo, hi = ranges[csf.order - 1]
    below = _leaf_values(csf, lo, hi, dtype, workspace)
    for level in range(csf.order - 1, 0, -1):
        lo, hi = ranges[level]
        parent_lo, parent_hi = ranges[level - 1]
        mode_here = csf.mode_order[level]
        factor = factor_arrays[mode_here]
        width = below.shape[1] * factor.shape[1]
        reduced = (
            workspace.take(
                (parent_hi - parent_lo, width), dtype,
                tag=f"{csf._token}-below-{level}",
            )
            if workspace is not None
            else np.empty((parent_hi - parent_lo, width), dtype=dtype)
        )
        if table is not None:
            table.csf_pullup_level(
                below, factor, csf.fids[level], csf.fptr[level - 1],
                lo, parent_lo, parent_hi, reduced,
            )
        else:
            # Deeper levels stay fastest: kron_rows([below, factor_rows]).
            segment_kron_sum(
                csf.fptr[level - 1][parent_lo:parent_hi + 1] - lo,
                below,
                np.take(factor, csf.fids[level][lo:hi], axis=0),
                out=reduced,
            )
        below = reduced
    return below


def _columns_permuted(csf: CSFTensor) -> bool:
    """Whether tree layout differs from the engine's mode-ascending layout."""
    axis_modes = list(csf.mode_order[1:])
    return axis_modes != sorted(axis_modes, reverse=True)


def _to_engine_columns(
    block: np.ndarray,
    csf: CSFTensor,
    factor_arrays: Sequence[Optional[np.ndarray]],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Permute tree-layout columns to the engine's mode-ascending layout.

    Tree layout orders the kron axes by level (deeper fastest); the engine's
    matricization orders them by mode index (smaller modes fastest).  Both
    are fixed interleavings, so one transpose of the reshaped width axis —
    applied once to the assembled block, not per fiber — converts between
    them.  The result lands in ``out`` when given (a pooled buffer or a
    slice of a plan's block); otherwise a permutation lands in a fresh
    array, and agreeing layouts return ``block`` itself.
    """
    axis_modes = list(csf.mode_order[1:])  # tree layout, slowest to fastest
    desired = sorted(axis_modes, reverse=True)  # engine: smallest mode fastest
    if axis_modes == desired:
        if out is None:
            return block
        out[...] = block
        return out
    widths = [factor_arrays[m].shape[1] for m in axis_modes]
    reshaped = block.reshape([block.shape[0]] + widths)
    axes = [0] + [1 + axis_modes.index(m) for m in desired]
    transposed = reshaped.transpose(axes)
    if out is None or not out.flags.c_contiguous:
        result = np.ascontiguousarray(transposed).reshape(block.shape[0], -1)
        if out is None:
            return result
        out[...] = result
        return out
    # Contiguous destination: reshape is a view, so the transpose is copied
    # straight into it with no intermediate.
    np.copyto(
        out.reshape(
            [block.shape[0]] + [widths[axis_modes.index(m)] for m in desired]
        ),
        transposed,
    )
    return out


def csf_ttmc_compact(
    csf: CSFTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    workspace=None,
    kernel: str = "numpy",
    roots: Optional[Tuple[int, int]] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compact mode-``n`` TTMc: ``(rows, block)`` over the non-empty rows.

    ``csf`` must be rooted at ``mode`` (``mode_order[0] == mode``); any other
    tree raises :class:`ValueError`.  ``rows`` is the sorted array ``J_n`` of
    mode-``n`` indices with at least one nonzero — the root fibers — and
    ``block[p]`` is ``Y_(n)(rows[p], :)``: the same numbers
    :func:`repro.core.ttmc.ttmc_matricized` writes into the full
    ``(I_n, ∏R_t)`` matrix, without materializing the empty rows (the block
    the engine's CSF plan writes into ``out``).

    ``roots=(start, stop)`` restricts the sweep to one *root-fiber slab*:
    its subtree is a contiguous node range at every level and its output
    rows are exactly its root fibers, disjoint from every other slab's — the
    lock-free range the engine's CSF plan hands to threads and worker
    processes.

    ``kernel`` selects the inner-loop tier: ``"numpy"`` is the vectorized
    gather + sparse × dense segment-sum pipeline documented above,
    ``"numba"`` walks the same fiber extents with the fused compiled loops
    of :mod:`repro.kernels` — one pass per level; the two agree up to
    floating-point reassociation.  ``workspace`` supplies pooled buffers;
    pass ``None`` from concurrent workers (the pool is not thread-safe).
    """
    from repro.kernels import kernel_table

    mode = check_axis(mode, csf.order)
    check_same_order(csf.order, factors, "factors")
    rows = csf.target_rows(mode)  # raises unless the tree is rooted at mode
    widths = _factor_widths(factors, csf.shape, mode)
    width = kron_row_length(widths)
    dtype = _csf_dtype(csf, factors, mode)

    if csf.nnz == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, width), dtype=dtype),
        )
    start, stop = (0, csf.num_fibers(0)) if roots is None else roots
    factor_arrays = _cast_factors(csf, factors, mode, dtype)
    below = _pullup(
        csf, factor_arrays, dtype, _level_ranges(csf, start, stop), workspace,
        kernel_table(kernel),
    )
    if out is None and workspace is not None and _columns_permuted(csf):
        out = workspace.take(
            (stop - start, width), dtype, tag=f"{csf._token}-cols"
        )
    return rows[start:stop], _to_engine_columns(
        below, csf, factor_arrays, out=out
    )


def csf_ttmc_matricized(
    csf: CSFTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    out: Optional[np.ndarray] = None,
    workspace=None,
    kernel: str = "numpy",
) -> np.ndarray:
    """Mode-``n`` matricized TTMc ``Y_(n)`` served from a tree rooted at ``n``.

    Matches :func:`repro.core.ttmc.ttmc_matricized` in shape, column order,
    dtype promotion (to reassociation-level rounding) and ``out`` contract
    (zeroed, then the ``J_n`` rows land).  ``kernel`` is forwarded to
    :func:`csf_ttmc_compact`, which rejects a tree not rooted at ``mode``.
    """
    mode = check_axis(mode, csf.order)
    rows, block = csf_ttmc_compact(
        csf, factors, mode, workspace=workspace, kernel=kernel
    )
    out = zeroed_out(out, (csf.shape[mode], block.shape[1]), block.dtype)
    out[rows] = block
    return out
