"""Fused CSF TTMc loop bodies for the compiled kernel tier.

The NumPy CSF kernels (:mod:`repro.sparse.csf_ttmc`) evaluate each tree
level as a gather plus a segment reduction over the fiber extents, run as
one sparse × dense product per column of the narrower operand
(:func:`repro.core.kron.segment_kron_sum`).  The functions here are the
same level sweeps written as explicit fiber-extent loops so a JIT can fuse
them: each output row is produced in **one pass** — factor rows gathered,
multiplied into the child's partial product and accumulated into the
parent's row.

Every function is written in the njit-compatible subset of Python/NumPy
(scalar loops, no fancy indexing, no allocation besides the caller-provided
buffers) and is valid *interpreted* Python too: the registry
(:mod:`repro.kernels.registry`) compiles them with
``numba.njit(cache=True, nogil=True)`` when numba is importable and can fall
back to the interpreted bodies for testing (``REPRO_KERNEL_FORCE_PYTHON``).
``prange`` degrades to ``range`` both in the interpreter and under
``parallel=False``; the loops over parents/groups are row-disjoint, so the
parallel flag is purely a scheduling choice.

Column conventions match :func:`repro.core.kron.batch_kron_rows`: the
*first* operand varies fastest.  The pullup kron is ``[below, factor]``
(below fastest), the pushdown kron is ``[factor, above]`` (factor fastest),
exactly as the NumPy path composes them — the compiled tier only
reassociates floating-point sums, never reorders columns.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised only where numba is installed
    from numba import prange
except ImportError:  # interpreted fallback: prange behaves like range
    prange = range

__all__ = [
    "csf_pullup_level",
    "csf_target_accumulate",
    "csf_pushdown_level",
    "csf_pushdown_expand",
]


def csf_pullup_level(below, factor, fids, fptr, lo, parent_lo, parent_hi, out):
    """One pullup level, fused: gather + Kronecker + extent accumulation.

    ``below`` holds the partial products of the child level's nodes
    ``[lo, lo + below.shape[0])``; ``fids``/``fptr`` are the child level's
    ``csf.fids[level]`` / ``csf.fptr[level - 1]`` arrays.  Row ``p`` of
    ``out`` (one per parent node in ``[parent_lo, parent_hi)``) receives

        ``Σ_{c ∈ children(p)} kron([below[c - lo], factor[fids[c]]])``

    with ``below`` varying fastest — the same numbers the NumPy path gets
    from ``segment_kron_sum``, in one pass per parent row.
    """
    width_below = below.shape[1]
    rank = factor.shape[1]
    for p in prange(parent_hi - parent_lo):
        row = out[p]
        for j in range(width_below * rank):
            row[j] = 0.0
        for c in range(fptr[parent_lo + p], fptr[parent_lo + p + 1]):
            frow = factor[fids[c]]
            brow = below[c - lo]
            for j in range(rank):
                base = j * width_below
                fj = frow[j]
                for i in range(width_below):
                    row[base + i] += fj * brow[i]
    return out


def csf_target_accumulate(below, above, perm, boundaries, total, out):
    """Deep-target assembly: per-node pullup ⊗ pushdown, summed by row group.

    ``perm``/``boundaries`` come from ``CSFTensor.target_grouping``: group
    ``g`` covers permuted positions ``boundaries[g]:boundaries[g + 1]``
    (``total`` closes the last group).  Row ``g`` of ``out`` receives

        ``Σ_{k ∈ group g} kron([below[perm[k]], above[perm[k]]])``

    with ``below`` varying fastest — the NumPy path's gathers and
    ``segment_kron_sum`` fused into one pass per output row.
    """
    width_below = below.shape[1]
    width_above = above.shape[1]
    for g in prange(boundaries.shape[0]):
        start = boundaries[g]
        stop = total if g + 1 == boundaries.shape[0] else boundaries[g + 1]
        row = out[g]
        for j in range(width_below * width_above):
            row[j] = 0.0
        for k in range(start, stop):
            node = perm[k]
            brow = below[node]
            arow = above[node]
            for j in range(width_above):
                base = j * width_below
                aj = arow[j]
                for i in range(width_below):
                    row[base + i] += aj * brow[i]
    return out


def csf_pushdown_level(above, factor, fids, fptr, out):
    """One pushdown level, fused: parent expansion + Kronecker refinement.

    ``above`` holds the ancestor products of the parent level's nodes (full
    level, one row per parent); child ``c`` of parent ``p`` receives
    ``kron([factor[fids[c]], above[p]])`` with the *factor* row varying
    fastest — the NumPy path's ``np.repeat`` + ``batch_kron_rows`` pair in
    one pass, without the expanded parent temporary.
    """
    rank = factor.shape[1]
    width_above = above.shape[1]
    for p in prange(above.shape[0]):
        arow = above[p]
        for c in range(fptr[p], fptr[p + 1]):
            frow = factor[fids[c]]
            crow = out[c]
            for j in range(width_above):
                base = j * rank
                aj = arow[j]
                for i in range(rank):
                    crow[base + i] = aj * frow[i]
    return out


def csf_pushdown_expand(above, fptr, out):
    """Final pushdown expansion: copy each parent row to all its children."""
    width = above.shape[1]
    for p in prange(above.shape[0]):
        arow = above[p]
        for c in range(fptr[p], fptr[p + 1]):
            crow = out[c]
            for j in range(width):
                crow[j] = arow[j]
    return out
