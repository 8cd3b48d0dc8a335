"""A parallel-for abstraction over worker threads.

The paper's shared-memory algorithm distributes the rows of ``Y_(n)`` to
OpenMP threads with dynamic scheduling.  This module provides the equivalent
primitive for Python: a chunked parallel loop with static, dynamic or guided
scheduling.  Each multi-threaded :func:`parallel_for` call starts a fresh
:class:`~concurrent.futures.ThreadPoolExecutor` of ``num_threads`` threads
and joins it before returning; a single thread, or a single chunk, runs
inline with no pool at all.  The work items handed to the threads are
NumPy-heavy (gathers, batched Kronecker products, GEMMs), which release the
GIL inside BLAS/ufunc inner loops, so real overlap is possible; regardless
of achieved speedup the *decomposition* of work is identical to the paper's,
which is what the correctness tests and the work/communication accounting
rely on.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

__all__ = ["ChunkSchedule", "make_chunks", "parallel_for", "ParallelConfig"]


@dataclass(frozen=True)
class ParallelConfig:
    """Threading configuration shared by the parallel HOOI components."""

    num_threads: int = 1
    schedule: str = "dynamic"
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if self.schedule not in ("static", "dynamic", "guided"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when given")


@dataclass(frozen=True)
class ChunkSchedule:
    """A concrete list of ``(start, stop)`` chunks over ``num_items`` items."""

    num_items: int
    chunks: Tuple[Tuple[int, int], ...]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)


def make_chunks(
    num_items: int,
    num_threads: int,
    *,
    schedule: str = "dynamic",
    chunk_size: Optional[int] = None,
) -> ChunkSchedule:
    """Split ``range(num_items)`` into chunks according to an OpenMP-like schedule.

    * ``static``: one contiguous chunk per thread (ceil division).
    * ``dynamic``: fixed-size chunks (default: enough for ~4 chunks per
      thread) that workers grab on demand.
    * ``guided``: geometrically decreasing chunk sizes (half of the remaining
      work divided by the thread count, never below ``chunk_size`` or 1).
    """
    num_items = int(num_items)
    num_threads = max(int(num_threads), 1)
    if num_items <= 0:
        return ChunkSchedule(num_items=0, chunks=())
    chunks: List[Tuple[int, int]] = []
    if schedule == "static":
        per = -(-num_items // num_threads)
        for start in range(0, num_items, per):
            chunks.append((start, min(start + per, num_items)))
    elif schedule == "dynamic":
        if chunk_size is None:
            chunk_size = max(1, -(-num_items // (4 * num_threads)))
        for start in range(0, num_items, chunk_size):
            chunks.append((start, min(start + chunk_size, num_items)))
    elif schedule == "guided":
        minimum = chunk_size or 1
        start = 0
        while start < num_items:
            remaining = num_items - start
            size = max(minimum, remaining // (2 * num_threads))
            size = min(size, remaining)
            chunks.append((start, start + size))
            start += size
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    return ChunkSchedule(num_items=num_items, chunks=tuple(chunks))


def parallel_for(
    body: Callable[[int, int], None],
    num_items: int,
    config: ParallelConfig,
) -> None:
    """Execute ``body(start, stop)`` over chunks of ``range(num_items)`` in parallel.

    With ``num_threads == 1`` the chunks are executed inline (no pool), which
    keeps single-thread baselines free of threading overhead.  With more
    threads, dynamic/guided schedules are served from a shared iterator that
    workers drain (the Python analogue of ``schedule(dynamic)``), while the
    static schedule pre-assigns chunk ``i`` to thread ``i``.
    """
    schedule = make_chunks(
        num_items,
        config.num_threads,
        schedule=config.schedule,
        chunk_size=config.chunk_size,
    )
    if len(schedule) == 0:
        return
    if config.num_threads == 1 or len(schedule) == 1:
        for start, stop in schedule:
            body(start, stop)
        return

    if config.schedule == "static":
        assignments: List[List[Tuple[int, int]]] = [[] for _ in range(config.num_threads)]
        for i, chunk in enumerate(schedule):
            assignments[i % config.num_threads].append(chunk)

        def worker_static(chunk_list: List[Tuple[int, int]]) -> None:
            for start, stop in chunk_list:
                body(start, stop)

        with ThreadPoolExecutor(max_workers=config.num_threads) as pool:
            futures = [pool.submit(worker_static, a) for a in assignments if a]
            for fut in futures:
                fut.result()
        return

    queue = iter(schedule)
    lock = threading.Lock()

    def worker_dynamic() -> None:
        while True:
            with lock:
                chunk = next(queue, None)
            if chunk is None:
                return
            body(chunk[0], chunk[1])

    with ThreadPoolExecutor(max_workers=config.num_threads) as pool:
        futures = [pool.submit(worker_dynamic) for _ in range(config.num_threads)]
        for fut in futures:
            fut.result()
