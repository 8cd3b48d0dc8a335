"""Compiled-kernel tier for the TTMc hot loops.

``HOOIOptions.kernel = "numpy" | "numba"`` is a first-class engine axis:
``"numpy"`` keeps the vectorized kernels every other axis was built on,
``"numba"`` swaps the inner loops of the COO row-block TTMc and the CSF
pullup sweeps for fused, JIT-compiled loop bodies (gather +
multiply + accumulate in one pass per output row).  The
registry owns availability, lazy compilation and warmup; the loop bodies
live in :mod:`repro.kernels.csf_kernels` / :mod:`repro.kernels.coo_kernels`
and are plain Python, so the numerics are testable without numba installed.
"""

from repro.kernels.registry import (
    KERNEL_TIERS,
    MISSING_DIMTREE_KERNELS,
    KernelTable,
    kernel_available,
    kernel_table,
    missing_dimtree_kernel_message,
    numba_available,
    require_kernel,
    warmup_kernels,
)

__all__ = [
    "KERNEL_TIERS",
    "MISSING_DIMTREE_KERNELS",
    "KernelTable",
    "kernel_available",
    "kernel_table",
    "missing_dimtree_kernel_message",
    "numba_available",
    "require_kernel",
    "warmup_kernels",
]
