"""OpenBLAS thread count of this process, through ctypes.

Two rules keep BLAS threads off cores that parallel TTMc work needs:

* A crew worker that runs whole jobs side by side with its siblings runs
  one BLAS thread: two workers with two BLAS threads each oversubscribe a
  2-core host (:mod:`repro.parallel.process_pool`).
* While a run's TTMc dispatcher has width ``w > 1`` (a thread team, or a
  crew that pays), the driver's libraries run at most
  ``max(1, usable CPUs − w)`` threads (:func:`limit_beside`, held by
  :class:`~repro.engine.backend.PlanBackend` from ``prepare`` until
  ``finalize``).  An OpenBLAS helper thread spins for about 0.1 s after
  each threaded call, so without the limit it takes a core from the
  workers after every TRSVD.  Holds are reference-counted: overlapping
  runs restore the counts only when the last one ends.  Raising a count
  again after the process forked re-creates the helpers, which then spin;
  a process that reuses one crew forks once, not per run.

``threadpoolctl`` is not a dependency, so this module finds the loaded
OpenBLAS libraries itself — through ``/proc/self/maps``, else numpy's and
scipy's bundled ``.libs`` directories — and calls
``openblas_set_num_threads`` under the symbol prefixes and suffixes
OpenBLAS builds export.  The lookup is cached: a process that looks the
libraries up before it forks hands its workers ready function pointers,
so a forked worker only calls the setter.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import os
import threading
from typing import List, Tuple

__all__ = [
    "can_set_threads",
    "limit_beside",
    "release_limit",
    "set_threads",
    "thread_counts",
    "threads_beside",
    "usable_cpus",
]

_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_", "_64_")


def _library_paths() -> List[str]:
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split(maxsplit=5)[-1].strip()
                for line in maps
                if "openblas" in line.lower()
            }
    except OSError:
        paths = set()
    if not paths:
        for package in ("numpy", "scipy"):
            root = os.path.dirname(importlib.import_module(package).__file__)
            libs = os.path.join(os.path.dirname(root), f"{package}.libs")
            paths.update(glob.glob(os.path.join(libs, "*openblas*")))
    return sorted(paths)


def _symbol(library, action: str):
    """``openblas_<action>_num_threads`` under any exported name, or ``None``."""
    names = (
        f"{prefix}openblas_{action}_num_threads{suffix}"
        for prefix in _PREFIXES
        for suffix in _SUFFIXES
    )
    return next((f for f in (getattr(library, n, None) for n in names) if f), None)


@functools.lru_cache(maxsize=None)
def _libraries() -> Tuple[Tuple, ...]:
    """``(setter, getter)`` of every loaded library that exports both."""
    found = []
    for path in _library_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        setter, getter = _symbol(library, "set"), _symbol(library, "get")
        if setter is not None and getter is not None:
            # void openblas_set_num_threads(int); int openblas_get_num_threads()
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((setter, getter))
    return tuple(found)


def can_set_threads() -> bool:
    """Whether this process found an OpenBLAS thread setter (cached)."""
    return bool(_libraries())


def set_threads(count: int) -> None:
    """Set every loaded OpenBLAS library's thread count."""
    for setter, _ in _libraries():
        setter(int(count))


def thread_counts() -> List[int]:
    """Every loaded OpenBLAS library's current thread count."""
    return [int(getter()) for _, getter in _libraries()]


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, else the CPU count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        return os.cpu_count() or 1


def threads_beside(workers: int) -> int:
    """BLAS threads the driver keeps beside ``workers`` busy cores."""
    return max(1, usable_cpus() - int(workers))


_lock = threading.Lock()
_holds = 0
_restore: List[int] = []


def limit_beside(workers: int) -> None:
    """Cap every library at :func:`threads_beside` threads until released.

    A library already below the cap keeps its count.  Each call must be
    matched by one :func:`release_limit`; the counts the first hold found
    come back when the last hold is released.
    """
    global _holds, _restore
    cap = threads_beside(workers)
    with _lock:
        counts = thread_counts()
        if _holds == 0:
            _restore = counts
        _holds += 1
        for (setter, _), count in zip(_libraries(), counts):
            if count > cap:
                setter(cap)


def release_limit() -> None:
    """End one :func:`limit_beside` hold; the last restores the counts."""
    global _holds
    with _lock:
        _holds -= 1
        if _holds:
            return
        for (setter, _), count, now in zip(_libraries(), _restore, thread_counts()):
            if count != now:
                setter(count)
