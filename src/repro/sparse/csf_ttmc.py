"""Fiber-vectorized TTMc kernels over CSF trees.

The COO kernel (:func:`repro.core.ttmc.ttmc_matricized`) multiplies, for
every nonzero, all ``N−1`` factor rows into a width-``∏_{t≠n} R_t``
contribution to its output row — ``O(nnz · ∏R)`` multiply work no matter
how much structure the tensor has.  On a CSF tree the same sum factors over the fiber
hierarchy:

* **pullup** (towards the root): the partial product of the levels *below*
  a node is shared by everything above it, so each level is one batched
  gather plus one :func:`~repro.core.kron.segment_kron_sum` over the fiber
  extents ``fptr[level - 1]`` — sparse × dense products that fold the
  level's factor rows into the reduction, so the ``nodes × width``
  Kronecker rows of a level are never built.  The widths grow level by
  level while the node counts shrink — the expansion to the full ``∏R``
  width happens over *merged fibers*, not raw nonzeros;
* **pushdown** (from the root): the partial product of the levels *above*
  the target is the same for every node of a subtree, so it is built once
  per node by expanding the parent level (``np.repeat`` over child counts)
  and Kronecker-multiplying the level's own factor rows.

The target mode's level splits the tree: ``Y_(n)`` rows are the kron of each
target node's pushdown and pullup vectors, segment-summed by target index
(again one :func:`~repro.core.kron.segment_kron_sum`).
With the target at the root (a :func:`~repro.sparse.csf.rooted_mode_order`
tree) the pushdown vanishes and the output rows are exactly the sorted,
unique root fibers ``J_n`` — the layout the engine's CSF plan exploits:
root-fiber slab ``[start, stop)`` is rows ``start..stop`` of the compact
``|J_n| × ∏R`` block, so thread and process workers write disjoint slices
lock-free (``make_chunks`` schedules over root fibers, mirroring the
paper's row decomposition).

There is no per-nonzero (or per-fiber) Python loop anywhere: every level is
a constant number of NumPy calls.  Results match ``ttmc_matricized`` in
shape, column order (mode-ascending, first mode fastest) and dtype promotion
to 1e-10 — the tree only reassociates the floating-point sums.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kron import (
    batch_kron_rows,
    kron_dtype,
    kron_row_length,
    segment_kron_sum,
)
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
    target_level: int,
    ranges: Sequence[Tuple[int, int]],
    workspace,
    table=None,
) -> np.ndarray:
    """Bottom-up partial products: one row per node at ``target_level``.

    Row ``p`` holds ``Σ_{z ∈ subtree(p)} vals[z] · kron(U rows of the levels
    below ``target_level``)`` with deeper levels varying fastest.  Buffers
    draw from ``workspace`` (tagged per tree/level, so repeated sweeps reuse
    them); pass ``None`` from concurrent workers.  ``table`` (a
    :class:`repro.kernels.KernelTable`) swaps each level's gather +
    segment-sum for the fused compiled walk over the fiber extents.
    """
    lo, hi = ranges[csf.order - 1]
    below = _leaf_values(csf, lo, hi, dtype, workspace)
    for level in range(csf.order - 1, target_level, -1):
        lo, hi = ranges[level]
        parent_lo, parent_hi = ranges[level - 1]
        mode_here = csf.mode_order[level]
        factor = factor_arrays[mode_here]
        width = below.shape[1] * factor.shape[1]
        reduced = (
            workspace.take(
                (parent_hi - parent_lo, width), dtype,
                tag=f"{csf._token}-below-{target_level}-{level}",
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


def _pushdown(
    csf: CSFTensor,
    factor_arrays: Sequence[Optional[np.ndarray]],
    target_level: int,
    workspace=None,
    table=None,
) -> np.ndarray:
    """Top-down ancestor products: one row per node at ``target_level``.

    Row ``p`` holds ``kron(U rows of p's ancestors at levels
    0..target_level−1)`` with deeper levels varying fastest.  ``table``
    fuses each level's parent expansion (``np.repeat``) and Kronecker
    refinement into one compiled pass; its per-level outputs draw from
    ``workspace`` like the pullup buffers do.
    """
    root_factor = factor_arrays[csf.mode_order[0]]
    dtype = root_factor.dtype
    if workspace is not None:
        above = workspace.take(
            (csf.num_fibers(0), root_factor.shape[1]), dtype,
            tag=f"{csf._token}-above-{target_level}-0",
        )
        np.take(root_factor, csf.fids[0], axis=0, out=above)
    else:
        above = np.take(root_factor, csf.fids[0], axis=0)
    for level in range(1, target_level + 1):
        if table is not None:
            refine = level < target_level
            width = above.shape[1] * (
                factor_arrays[csf.mode_order[level]].shape[1] if refine else 1
            )
            expanded = (
                workspace.take(
                    (csf.num_fibers(level), width), dtype,
                    tag=f"{csf._token}-above-{target_level}-{level}",
                )
                if workspace is not None
                else np.empty((csf.num_fibers(level), width), dtype=dtype)
            )
            if refine:
                table.csf_pushdown_level(
                    above, factor_arrays[csf.mode_order[level]],
                    csf.fids[level], csf.fptr[level - 1], expanded,
                )
            else:
                table.csf_pushdown_expand(above, csf.fptr[level - 1], expanded)
            above = expanded
        else:
            above = np.repeat(above, np.diff(csf.fptr[level - 1]), axis=0)
            if level < target_level:
                mode_here = csf.mode_order[level]
                factor_rows = np.take(
                    factor_arrays[mode_here], csf.fids[level], axis=0
                )
                above = batch_kron_rows([factor_rows, above])
    return above


def _tree_axis_modes(csf: CSFTensor, target_level: int) -> List[int]:
    """Tree-layout kron axes (slowest to fastest), as tensor mode indices."""
    return [
        csf.mode_order[level]
        for level in range(csf.order)
        if level != target_level
    ]


def _columns_permuted(csf: CSFTensor, target_level: int) -> bool:
    """Whether tree layout differs from the engine's mode-ascending layout."""
    axis_modes = _tree_axis_modes(csf, target_level)
    return axis_modes != sorted(axis_modes, reverse=True)


def _to_engine_columns(
    block: np.ndarray,
    csf: CSFTensor,
    factor_arrays: Sequence[Optional[np.ndarray]],
    target_level: int,
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
    axis_modes = _tree_axis_modes(csf, target_level)
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

    ``rows`` is the sorted array ``J_n`` of mode-``n`` indices with at least
    one nonzero and ``block[p]`` is ``Y_(n)(rows[p], :)`` — the same numbers
    :func:`repro.core.ttmc.ttmc_matricized` writes into the full
    ``(I_n, ∏R_t)`` matrix, without materializing the empty rows (the block
    the engine's CSF plan writes into ``out``).

    ``roots=(start, stop)`` restricts a sweep whose target mode is the
    tree's root to one *root-fiber slab*: its subtree is a contiguous node
    range at every level and its output rows are exactly its root fibers,
    disjoint from every other slab's — the lock-free range the engine's
    CSF plan hands to threads and worker processes.  Deep target levels
    (a shared tree) have no such decomposition and take no ``roots``.

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
    widths = _factor_widths(factors, csf.shape, mode)
    width = kron_row_length(widths)
    target_level = csf.level_of(mode)
    dtype = _csf_dtype(csf, factors, mode)

    if csf.nnz == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, width), dtype=dtype),
        )
    start, stop = (0, csf.num_fibers(0)) if roots is None else roots
    if target_level != 0 and (start, stop) != (0, csf.num_fibers(0)):
        raise ValueError(
            f"root-fiber slabs need a tree rooted at mode {mode}, but its "
            f"level is {target_level}"
        )

    factor_arrays = _cast_factors(csf, factors, mode, dtype)
    table = kernel_table(kernel)

    def _cols_out(num_rows: int) -> Optional[np.ndarray]:
        """Destination of the column permutation (None = allocate)."""
        if out is not None or workspace is None or not _columns_permuted(
            csf, target_level
        ):
            return out
        return workspace.take(
            (num_rows, width), dtype, tag=f"{csf._token}-cols-{target_level}"
        )

    ranges = _level_ranges(csf, start, stop)
    below = _pullup(
        csf, factor_arrays, dtype, target_level, ranges, workspace, table
    )
    if target_level == 0:
        return csf.fids[0][start:stop], _to_engine_columns(
            below, csf, factor_arrays, 0, out=_cols_out(stop - start)
        )

    above = _pushdown(csf, factor_arrays, target_level, workspace, table)
    perm, rows, boundaries = csf.target_grouping(target_level)
    # Group the narrow pullup/pushdown vectors by target index and reduce
    # them with the Kronecker product folded in: the ∏R-wide per-node rows
    # are never built.  The per-row sums draw from the pool like the pullup
    # levels do, so deep-target sweeps also stop allocating once the pool is
    # warm.
    block = (
        workspace.take(
            (rows.shape[0], width), dtype,
            tag=f"{csf._token}-deep-out-{target_level}",
        )
        if workspace is not None
        else np.empty((rows.shape[0], width), dtype=dtype)
    )
    if table is not None:
        # Fused gather + kron + segment-sum straight into the output block:
        # the ∏R-wide per-node expansion never materializes.
        table.csf_target_accumulate(
            below, above, perm, boundaries, perm.shape[0], block
        )
    else:
        segment_kron_sum(
            np.append(boundaries, perm.shape[0]), below[perm], above[perm],
            out=block,
        )
    return rows, _to_engine_columns(
        block, csf, factor_arrays, target_level, out=_cols_out(rows.shape[0])
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
    """Mode-``n`` matricized TTMc ``Y_(n)`` served from a CSF tree.

    Matches :func:`repro.core.ttmc.ttmc_matricized` in shape, column order,
    dtype promotion (to reassociation-level rounding) and ``out`` contract
    (zeroed, then the ``J_n`` rows land).  ``kernel`` is forwarded to
    :func:`csf_ttmc_compact`.
    """
    mode = check_axis(mode, csf.order)
    rows, block = csf_ttmc_compact(
        csf, factors, mode, workspace=workspace, kernel=kernel
    )
    out = zeroed_out(out, (csf.shape[mode], block.shape[1]), block.dtype)
    out[rows] = block
    return out
