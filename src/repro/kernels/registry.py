"""Kernel-tier registry: availability, lazy JIT compilation, warmup.

``HOOIOptions.kernel`` selects the implementation tier of the TTMc hot
loops:

* ``"numpy"`` — the vectorized NumPy kernels every axis was built on (the
  default; always available);
* ``"numba"`` — the fused loop bodies of :mod:`repro.kernels.csf_kernels`
  and :mod:`repro.kernels.coo_kernels`, JIT-compiled with
  ``numba.njit(cache=True, nogil=True)``.

The registry is the single owner of that choice.  :func:`kernel_table`
returns ``None`` for the numpy tier (callers keep their vectorized path) or
a :class:`KernelTable` of compiled dispatchers for the numba tier —
compiled lazily on first request and cached for the process (numba's
``cache=True`` additionally persists the machine code on disk, so worker
processes and later runs skip recompilation).

Fallback is explicit, not silent: requesting ``kernel="numba"`` without
numba installed raises a :class:`ValueError` naming the fix
(``pip install numba`` — or ``pip install 'repro-hypertensor[kernels]'`` —
or ``kernel="numpy"``).  :meth:`~repro.core.hooi.HOOIOptions.validate`
calls :func:`require_kernel` so the error fires at option validation, before
any tensor work starts.

The kernels compile single-threaded (but ``nogil``): the engine already
parallelizes over rows, slabs and ranks, and the compiled tier composes with
those layers by running inside each task.

``REPRO_KERNEL_FORCE_PYTHON=1`` (read per call, so tests can monkeypatch
it) serves the numba tier's *interpreted* loop bodies instead of compiling
them.  This is a testing hook: it proves the compiled tier's numerics (the
bodies are the exact code numba compiles) on machines without numba, and it
propagates through the environment to worker processes.  It is orders of
magnitude slower than either real tier — never use it for performance work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "KERNEL_TIERS",
    "MISSING_DIMTREE_KERNELS",
    "KernelTable",
    "numba_available",
    "kernel_available",
    "require_kernel",
    "kernel_table",
    "missing_dimtree_kernel_message",
    "warmup_kernels",
]

#: The implementation tiers ``HOOIOptions.kernel`` accepts.
KERNEL_TIERS = ("numpy", "numba")

#: The fused entry points the dimension-tree strategy would need from the
#: compiled tier but which no :class:`KernelTable` provides yet.  Naming them
#: here keeps the ``kernel='numba' × ttmc_strategy='dimtree'`` fail-fast in
#: :meth:`repro.core.hooi.HOOIOptions.validate` honest: the error message
#: (:func:`missing_dimtree_kernel_message`) lists exactly these, so closing
#: the hole means implementing them, adding KernelTable fields, and deleting
#: this constant — not hunting for scattered guard strings.
MISSING_DIMTREE_KERNELS = ("dimtree_edge_update", "dimtree_leaf_gather")

_FORCE_PYTHON_ENV = "REPRO_KERNEL_FORCE_PYTHON"

#: Compiled (or interpreted-fallback) tables, keyed by the force-python hook.
_TABLES: Dict[bool, "KernelTable"] = {}


@dataclass(frozen=True)
class KernelTable:
    """The compiled-tier entry points, resolved once per configuration.

    ``compiled`` is False only under the ``REPRO_KERNEL_FORCE_PYTHON``
    testing hook, where the fields hold the interpreted loop bodies.
    ``make_factor_list`` adapts a Python list of factor arrays to what the
    dispatchers accept (``numba.typed.List`` under JIT, the list itself
    interpreted).
    """

    csf_pullup_level: Callable
    coo_row_block_ttmc: Callable
    make_factor_list: Callable[[List[np.ndarray]], object]
    compiled: bool


def _force_python() -> bool:
    return os.environ.get(_FORCE_PYTHON_ENV, "").strip() not in ("", "0")


def numba_available() -> bool:
    """Whether the numba JIT itself is importable (no env hooks applied)."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def kernel_available(kernel: str) -> bool:
    """Whether a tier can serve requests on this interpreter.

    The numpy tier always can; the numba tier needs numba installed or the
    ``REPRO_KERNEL_FORCE_PYTHON`` testing hook.
    """
    if kernel == "numpy":
        return True
    if kernel == "numba":
        return numba_available() or _force_python()
    return False


def require_kernel(kernel: str) -> str:
    """Validate a tier name *and* its availability; return the name.

    Raises :class:`ValueError` with an actionable message — this is what
    :meth:`repro.core.hooi.HOOIOptions.validate` surfaces when
    ``kernel="numba"`` is requested on an interpreter without numba.
    """
    if kernel not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel {kernel!r}: expected one of {KERNEL_TIERS}"
        )
    if not kernel_available(kernel):
        raise ValueError(
            "kernel='numba' requires the numba JIT, which is not installed "
            "in this environment: install it with `pip install numba` (or "
            "`pip install 'repro-hypertensor[kernels]'`), or run with "
            "kernel='numpy' (the default, same numerics — see README "
            "'Choosing a kernel tier')"
        )
    return kernel


def missing_dimtree_kernel_message() -> str:
    """The actionable error for ``kernel='numba' × ttmc_strategy='dimtree'``.

    Kept next to :data:`MISSING_DIMTREE_KERNELS` so the message and the
    list of unimplemented entry points cannot drift apart.
    """
    missing = ", ".join(f"'{name}'" for name in MISSING_DIMTREE_KERNELS)
    return (
        "kernel='numba' does not compose with ttmc_strategy='dimtree': the "
        f"compiled tier is missing the fused dimension-tree kernels {missing} "
        "(repro/kernels/registry.py, MISSING_DIMTREE_KERNELS) — use "
        "kernel='numpy' with the dimtree strategy, or keep the numba tier "
        "with ttmc_strategy='per-mode' (either tensor format).  Note the "
        "REPRO_KERNEL_FORCE_PYTHON=1 hook cannot bridge this hole: it serves "
        "the numba tier's existing loop bodies interpreted, but these "
        "dimension-tree entry points do not exist in any form yet."
    )


def _build_table() -> KernelTable:
    """Compile (or, under the testing hook, interpret) the loop bodies."""
    from repro.kernels import coo_kernels, csf_kernels

    bodies = dict(
        csf_pullup_level=csf_kernels.csf_pullup_level,
        coo_row_block_ttmc=coo_kernels.coo_row_block_ttmc,
    )
    if _force_python():
        return KernelTable(
            **bodies, make_factor_list=lambda factors: factors, compiled=False
        )

    import numba

    jit = numba.njit(cache=True, nogil=True)

    def make_factor_list(factors: List[np.ndarray]):
        typed = numba.typed.List()
        for factor in factors:
            typed.append(factor)
        return typed

    return KernelTable(
        **{name: jit(fn) for name, fn in bodies.items()},
        make_factor_list=make_factor_list,
        compiled=True,
    )


def kernel_table(kernel: str) -> Optional[KernelTable]:
    """The dispatch table of a tier: ``None`` for numpy, compiled for numba.

    Compilation is lazy (first request per process) and cached per value
    of the force-python hook; numba's own ``cache=True`` persists the
    machine code across processes.
    """
    require_kernel(kernel)
    if kernel == "numpy":
        return None
    key = _force_python()
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _build_table()
    return table


def warmup_kernels(kernel: str = "numba", dtype=np.float64) -> Optional[KernelTable]:
    """Trigger (and time-shift) JIT compilation off the measured path.

    Runs every dispatcher once on a tiny synthetic problem so the first
    real sweep pays no compilation latency — call it before benchmarking or
    before a latency-sensitive serving loop.  Returns the warmed table
    (``None`` for the numpy tier, which needs no warmup).
    """
    table = kernel_table(kernel)
    if table is None:
        return None
    dtype = np.dtype(dtype)
    # A 2-level toy tree: 2 roots, 3 children (= nonzeros).
    below = np.asarray([[1.0], [2.0], [3.0]], dtype=dtype)
    factor = np.asarray([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
    fids = np.asarray([0, 1, 0], dtype=np.int64)
    fptr = np.asarray([0, 2, 3], dtype=np.int64)
    table.csf_pullup_level(
        below, factor, fids, fptr, 0, 0, 2, np.empty((2, 2), dtype=dtype)
    )
    indices = np.asarray([[0, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=np.int64)
    values = np.asarray([1.0, 2.0, 3.0], dtype=dtype)
    factors = table.make_factor_list([factor.copy(), factor.copy()])
    table.coo_row_block_ttmc(
        indices,
        values,
        factors,
        np.asarray([1, 2], dtype=np.int64),
        np.asarray([0, 2, 3], dtype=np.int64),
        np.asarray([0, 2, 1], dtype=np.int64),
        np.asarray([0, 1], dtype=np.int64),
        np.zeros((2, 4), dtype=dtype),
    )
    return table
