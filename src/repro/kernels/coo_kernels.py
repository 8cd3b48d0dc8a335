"""Compiled COO row-block TTMc loop body.

The NumPy COO kernel (:func:`repro.core.ttmc.coo_segment_ttmc`, the numpy
tier of the COO range body :func:`repro.core.ttmc.coo_rows_range`) builds, per block of
nonzeros, the Kronecker rows of all but the last factor and folds the last
factor and the values into one sparse × dense product per last-factor
column (:func:`repro.core.kron.segment_kron_sum`); each of those products
walks the block once more.  The loop body here is the same equation (4)
accumulation written per nonzero: the Kronecker row is built *in place* in
a width-``∏R`` register-blocked buffer and added straight into the owning
output row in a single pass.

The outer loop runs over output rows, not nonzeros — each row of ``out`` is
written by exactly one iteration (the paper's lock-free row decomposition),
which keeps the kernel composable with the thread / process / distributed
row-block layers exactly like the NumPy path.

``factors`` is a list of the ``N − 1`` non-target factor matrices in
ascending mode order (a ``numba.typed.List`` under JIT, a plain list in the
interpreted fallback — both index and slice identically here); ``cols[t]``
is the tensor mode of ``factors[t]`` inside ``indices``.  The in-place
Kronecker expansion iterates high-to-low so ``buf[j * w + i]`` never
overwrites a ``buf[i]`` it still needs; the first operand (smallest mode)
varies fastest, matching :func:`repro.core.kron.batch_kron_rows`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["coo_row_block_ttmc"]


def coo_row_block_ttmc(
    indices, values, factors, cols, rowptr, positions, target_rows, out
):
    """Accumulate TTMc rows ``out[target_rows[r]]`` from grouped nonzeros.

    ``positions[rowptr[r]:rowptr[r + 1]]`` are the nonzero positions of
    output row ``r`` (the symbolic step's update list ``ul_n(i)``);
    ``target_rows[r]`` is the row of ``out`` it owns.  Each owned row is
    zeroed and then accumulated in one pass:

        ``out[target_rows[r]] = Σ_z vals[z] · kron(U_t[indices[z, cols[t]]])``

    with the first factor varying fastest.  Rows of ``out`` outside
    ``target_rows`` are never touched.
    """
    width = out.shape[1]
    num_factors = len(cols)
    for r in range(target_rows.shape[0]):
        row = out[target_rows[r]]
        for j in range(width):
            row[j] = 0.0
        buf = np.empty(width, dtype=out.dtype)
        for k in range(rowptr[r], rowptr[r + 1]):
            z = positions[k]
            buf[0] = values[z]
            w = 1
            for t in range(num_factors):
                factor = factors[t]
                frow = factor[indices[z, cols[t]]]
                rank = factor.shape[1]
                for j in range(rank - 1, -1, -1):
                    base = j * w
                    fj = frow[j]
                    for i in range(w - 1, -1, -1):
                        buf[base + i] = fj * buf[i]
                w *= rank
            for j in range(width):
                row[j] += buf[j]
    return out
