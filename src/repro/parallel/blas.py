"""OpenBLAS thread count of this process, through ctypes.

A crew worker that runs whole jobs side by side with its siblings must not
start OpenBLAS's default thread pool: two workers with two BLAS threads
each oversubscribe a 2-core host.  ``threadpoolctl`` is not a dependency,
so this module finds the loaded OpenBLAS libraries itself — through
``/proc/self/maps``, else numpy's and scipy's bundled ``.libs``
directories — and calls ``openblas_set_num_threads`` under the symbol
prefixes and suffixes OpenBLAS builds export.

The lookup is cached: a process that looks the libraries up before it
forks hands its workers ready function pointers, so a forked worker only
calls the setter.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import os
from typing import List, Tuple

__all__ = ["can_set_threads", "set_threads", "thread_counts"]

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


#: ``void openblas_set_num_threads(int)`` and ``int openblas_get_num_threads()``.
_SIGNATURES = {"set": ([ctypes.c_int], None), "get": ([], ctypes.c_int)}


@functools.lru_cache(maxsize=None)
def _functions(action: str) -> Tuple:
    """One ``openblas_<action>_num_threads`` per loaded library."""
    argtypes, restype = _SIGNATURES[action]
    found = []
    for path in _library_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        names = (
            f"{prefix}openblas_{action}_num_threads{suffix}"
            for prefix in _PREFIXES
            for suffix in _SUFFIXES
        )
        function = next(
            (f for f in (getattr(library, n, None) for n in names) if f), None
        )
        if function is not None:
            function.argtypes, function.restype = argtypes, restype
            found.append(function)
    return tuple(found)


def can_set_threads() -> bool:
    """Whether this process found an OpenBLAS thread setter (cached)."""
    return bool(_functions("set"))


def set_threads(count: int) -> None:
    """Set every loaded OpenBLAS library's thread count."""
    for setter in _functions("set"):
        setter(int(count))


def thread_counts() -> List[int]:
    """Every loaded OpenBLAS library's current thread count."""
    return [int(getter()) for getter in _functions("get")]
