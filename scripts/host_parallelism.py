"""Probe how much parallelism the host gives this process right now.

Hashes four 64 MB zero buffers with SHA-256 three ways: one after another,
on 2 threads (``hashlib`` releases the GIL on large buffers) and on 2
processes.  It prints one JSON line with the three wall times in seconds,
plus the usable CPU count.  On a host that gives the process two CPUs the
thread and process times are about half the sequential time; when they
come close to it, two busy processes share about one CPU, and a parallel
A/B measured then says little.  Run it before and after each A/B batch:

    python scripts/host_parallelism.py

Only the standard library is used; worker start-up is not timed.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor

#: Bytes per hashed buffer, and buffers per timing.
BUFFER_BYTES = 64 << 20
BUFFERS = 4
WIDTH = 2


def _hash(_index: int) -> str:
    return hashlib.sha256(bytes(BUFFER_BYTES)).hexdigest()


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def probe() -> dict:
    """Seconds to hash ``BUFFERS`` buffers sequentially, on threads and on processes."""
    jobs = range(BUFFERS)
    sequential = _timed(lambda: [_hash(i) for i in jobs])
    with ThreadPoolExecutor(WIDTH) as threads:
        list(threads.map(_hash, range(WIDTH)))  # start the threads
        threaded = _timed(lambda: list(threads.map(_hash, jobs)))
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with multiprocessing.get_context(method).Pool(WIDTH) as processes:
        processes.map(_hash, range(WIDTH))  # start the processes
        forked = _timed(lambda: processes.map(_hash, jobs, chunksize=1))
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {
        "sequential_s": round(sequential, 4),
        "threads2_s": round(threaded, 4),
        "processes2_s": round(forked, 4),
        "usable_cpus": cpus,
    }


if __name__ == "__main__":
    print(json.dumps(probe()))
