"""Pooled workspaces for the HOOI engine.

Every HOOI iteration recomputes, for each mode ``n``, the matricized TTMc
result ``Y_(n)`` — a compact ``(|J_n| × ∏_{t≠n} R_t)`` dense block over the
non-empty rows — plus the
intermediates of the fiber formats: CSF per-level pullup buffers
and column-permutation targets, and dimension-tree node payloads.  The
shapes repeat identically across iterations (and often across modes), so
allocating them fresh every time wastes allocator work and memory bandwidth
on the hottest, latency-bound phase.  :class:`WorkspacePool` keeps one
buffer per distinct ``(tag, shape, dtype)`` and hands the same memory back
on every request.

The pool is deliberately simple: it is *not* a checkout/return arena.  The
engine's execution order guarantees that a buffer's previous content is dead
by the time the same key is requested again (a mode's ``Y_(n)`` is consumed
by the TRSVD before the next mode with the same shape runs, and the last
mode's ``Y_(N)`` is folded into the core before the next iteration starts),
which is exactly the reuse pattern a ring of per-key buffers supports.

The pool is not thread-safe, so only the driver thread uses it: the inline
dispatcher hands it to the plan's range body, while thread and process
range bodies allocate their scratch privately.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["WorkspacePool"]


class WorkspacePool:
    """A keyed pool of reusable ndarray buffers.

    Buffers are keyed by ``(tag, shape, dtype)``; the first request for a key
    allocates, every later request returns the same array.  The ``tag``
    separates buffer *roles* that may be live at the same time — e.g. two
    modes' outputs, or a CSF level buffer and the column-permuted block
    built from it, can coincidentally share a shape and must never share
    memory.  The instance
    counts allocations and reuses so benchmarks (and tests) can verify that a
    steady-state HOOI iteration performs zero pool allocations.
    """

    def __init__(self) -> None:
        self._buffers: Dict[
            Tuple[str, Tuple[int, ...], np.dtype], np.ndarray
        ] = {}
        self.allocations = 0
        self.reuses = 0

    def take(self, shape, dtype=np.float64, *, tag: str = "") -> np.ndarray:
        """Return a buffer of the given shape/dtype (contents unspecified).

        Callers whose buffer must stay live while other pool buffers of the
        same shape are written (an accumulation target, for instance) must
        pass a distinct ``tag``.
        """
        key = (tag, tuple(int(s) for s in shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(key[1], dtype=key[2])
            self._buffers[key] = buffer
            self.allocations += 1
        else:
            self.reuses += 1
        return buffer

    def zeros(self, shape, dtype=np.float64, *, tag: str = "") -> np.ndarray:
        """Like :meth:`take` but the returned buffer is zero-filled."""
        buffer = self.take(shape, dtype, tag=tag)
        buffer[...] = 0
        return buffer

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop every pooled buffer (counters are kept)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkspacePool(buffers={self.num_buffers}, "
            f"bytes={self.nbytes()}, allocations={self.allocations}, "
            f"reuses={self.reuses})"
        )
