"""A parallel-for abstraction over worker threads.

The paper's shared-memory algorithm distributes the rows of ``Y_(n)`` to
OpenMP threads with dynamic scheduling.  This module provides the equivalent
primitive for Python: a loop over :func:`make_chunks` chunks that worker
threads grab on demand.  Each multi-threaded :func:`parallel_for` call starts
a fresh :class:`~concurrent.futures.ThreadPoolExecutor` of ``num_threads``
threads and joins it before returning; a single thread, or a single chunk,
runs inline with no pool at all.  The work items handed to the threads are
NumPy-heavy (gathers, batched Kronecker products, GEMMs), which release the
GIL inside BLAS/ufunc inner loops, so real overlap is possible; regardless
of achieved speedup the *decomposition* of work is identical to the paper's,
which is what the correctness tests and the work/communication accounting
rely on.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Tuple

__all__ = ["make_chunks", "parallel_for"]


def make_chunks(num_items: int, num_workers: int) -> List[Tuple[int, int]]:
    """Split ``range(num_items)`` into contiguous ``(start, stop)`` chunks.

    Every chunk but the last holds ``⌈num_items / (4 · num_workers)⌉`` items,
    about four chunks per worker for workers to grab on demand (OpenMP's
    ``schedule(dynamic)``): enough slack to even out uneven rows, few enough
    to keep the dispatch cost small.
    """
    num_items = int(num_items)
    size = max(1, -(-num_items // (4 * max(int(num_workers), 1))))
    return [
        (start, min(start + size, num_items)) for start in range(0, num_items, size)
    ]


def parallel_for(
    body: Callable[[int, int], None], num_items: int, num_threads: int
) -> None:
    """Execute ``body(start, stop)`` over chunks of ``range(num_items)`` in parallel.

    With one thread, or a single chunk, the chunks run inline (no pool),
    which keeps single-thread baselines free of threading overhead.  With
    more, the threads drain a shared iterator of :func:`make_chunks` chunks
    (the Python analogue of ``schedule(dynamic)``).
    """
    chunks = make_chunks(num_items, num_threads)
    if num_threads == 1 or len(chunks) <= 1:
        for start, stop in chunks:
            body(start, stop)
        return

    queue = iter(chunks)
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                chunk = next(queue, None)
            if chunk is None:
                return
            body(chunk[0], chunk[1])

    with ThreadPoolExecutor(max_workers=num_threads) as pool:
        futures = [pool.submit(worker) for _ in range(num_threads)]
        for fut in futures:
            fut.result()
