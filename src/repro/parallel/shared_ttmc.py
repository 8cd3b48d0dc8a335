"""Compact TTMc row blocks (Algorithm 3's row task over a chosen row set).

The symbolic step guarantees that each non-empty row ``i ∈ J_n`` of ``Y_(n)``
is updated only from its own update list ``ul_n(i)``, so any set of rows can
be computed independently — the paper's lock-free decomposition.  The COO
range body itself is :func:`repro.core.ttmc.coo_rows_range`; the engine's
dispatchers (:mod:`repro.engine.backend`) run it over ``make_chunks`` ranges
on threads or worker processes.  :func:`ttmc_row_block` is the compact form
the distributed row-block seam consumes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.kron import kron_row_length
from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import ModeSymbolic
from repro.core.ttmc import coo_rows_range, restrict_symbolic, ttmc_dtype
from repro.util.validation import check_axis, check_same_order

__all__ = ["ttmc_row_block"]


def ttmc_row_block(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    symbolic: ModeSymbolic,
    row_positions: np.ndarray,
    *,
    block_nnz: Optional[int] = None,
    kernel: str = "numpy",
) -> np.ndarray:
    """Compute a compact block of TTMc rows.

    ``row_positions`` indexes into ``symbolic.rows`` (i.e. positions of
    non-empty rows, not tensor indices); the result has shape
    ``(len(row_positions), prod R_t)`` with row ``p`` holding
    ``Y_(n)(symbolic.rows[row_positions[p]], :)``.  ``kernel`` selects the
    inner-loop tier (``"numpy"`` or the fused compiled ``"numba"`` loops of
    :mod:`repro.kernels`); either way each output row is written by exactly
    this call.
    """
    mode = check_axis(mode, tensor.order)
    check_same_order(tensor.order, factors, "factors")
    row_positions = np.asarray(row_positions, dtype=np.int64)
    width = kron_row_length(
        [np.asarray(factors[t]).shape[1] for t in range(tensor.order) if t != mode]
    )
    # Every requested row is non-empty and assigned below.
    out = np.empty(
        (row_positions.shape[0], width), dtype=ttmc_dtype(tensor, factors, mode)
    )
    subset = restrict_symbolic(symbolic, row_positions)
    return coo_rows_range(
        tensor, factors, mode, subset, 0, subset.num_rows, out,
        compact=True, block_nnz=block_nnz, kernel=kernel,
    )
