"""Fused CSF TTMc loop body for the compiled kernel tier.

The NumPy CSF kernel (:mod:`repro.sparse.csf_ttmc`) evaluates each tree
level as a gather plus a segment reduction over the fiber extents, run as
one sparse × dense product per column of the narrower operand
(:func:`repro.core.kron.segment_kron_sum`).  :func:`csf_pullup_level` is the
same level sweep written as an explicit fiber-extent loop so a JIT can fuse
it: each output row is produced in **one pass** — factor rows gathered,
multiplied into the child's partial product and accumulated into the
parent's row.

The function is written in the njit-compatible subset of Python/NumPy
(scalar loops, no fancy indexing, no allocation besides the caller-provided
buffers) and is valid *interpreted* Python too: the registry
(:mod:`repro.kernels.registry`) compiles it with
``numba.njit(cache=True, nogil=True)`` when numba is importable and can fall
back to the interpreted body for testing (``REPRO_KERNEL_FORCE_PYTHON``).
Its loop over parents is row-disjoint, so the engine's threads and worker
processes can run slabs of one level side by side.

Column conventions match :func:`repro.core.kron.batch_kron_rows`: the
*first* operand varies fastest.  The pullup kron is ``[below, factor]``
(below fastest), exactly as the NumPy path composes it — the compiled tier
only reassociates floating-point sums, never reorders columns.
"""

from __future__ import annotations

__all__ = ["csf_pullup_level"]


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
    for p in range(parent_hi - parent_lo):
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
