"""SPMD launcher for the simulated MPI world.

``run_spmd(program, num_ranks)`` is the ``mpiexec -n P python program.py``
analogue: it creates a :class:`~repro.simmpi.communicator.CommWorld`, spawns
one thread per rank, runs ``program(comm, *args, **kwargs)`` on each, and
returns the per-rank return values together with the world (whose stats and
clocks hold the communication volumes and simulated times of the run).

If any rank raises, all exceptions are collected and re-raised as a single
:class:`SPMDError` after the remaining ranks have been released — a hung
barrier would otherwise deadlock the process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.simmpi.communicator import CommWorld
from repro.simmpi.machine import BGQ_MACHINE, MachineModel

__all__ = ["SPMDError", "SPMDResult", "run_spmd"]


class SPMDError(RuntimeError):
    """Raised when one or more simulated ranks fail."""

    def __init__(self, failures: List[Tuple[int, BaseException]]) -> None:
        self.failures = failures
        summary = "; ".join(f"rank {rank}: {exc!r}" for rank, exc in failures)
        super().__init__(f"{len(failures)} rank(s) failed: {summary}")


@dataclass
class SPMDResult:
    """Per-rank return values plus the world's accounting."""

    world: CommWorld
    values: List[Any]


def run_spmd(
    program: Callable[..., Any],
    num_ranks: int,
    *args: Any,
    machine: MachineModel = BGQ_MACHINE,
    world: Optional[CommWorld] = None,
    **kwargs: Any,
) -> SPMDResult:
    """Run ``program(comm, *args, **kwargs)`` on ``num_ranks`` simulated ranks.

    The program must be SPMD-correct: every rank calls the same collectives in
    the same order (as with real MPI).  A fresh :class:`CommWorld` is created
    unless one is supplied (supplying one allows chaining phases while keeping
    cumulative statistics).
    """
    world = world or CommWorld(num_ranks, machine=machine)
    if world.num_ranks != num_ranks:
        raise ValueError("provided world has a different number of ranks")
    results: List[Any] = [None] * num_ranks
    failures: List[Tuple[int, BaseException]] = []
    failure_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = world.communicator(rank)
        try:
            results[rank] = program(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            with failure_lock:
                failures.append((rank, exc))
            # Abort the barrier so other ranks blocked in collectives fail fast
            # instead of deadlocking.
            world._barrier.abort()

    if num_ranks == 1:
        # Run inline: cheaper and easier to debug.
        runner(0)
    else:
        threads = [
            threading.Thread(target=runner, args=(rank,), name=f"simmpi-rank-{rank}")
            for rank in range(num_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    if failures:
        primary = [f for f in failures if not isinstance(f[1], threading.BrokenBarrierError)]
        raise SPMDError(primary or failures)
    return SPMDResult(world=world, values=results)
