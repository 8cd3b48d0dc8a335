"""Simulated MPI communicator.

This is the substitution for MPI/mpi4py (not installed in this environment,
and the paper's BlueGene/Q is obviously unavailable): an SPMD runtime whose
ranks are Python threads inside one process.  The communicator exposes the
MPI-like operations the distributed HOOI needs — blocking point-to-point
send/recv with tags, barrier, broadcast, reduce, allreduce, allgather,
all-to-all (and its vector variant) — with three kinds of bookkeeping attached
to every operation:

* **payload delivery** (real data movement between the rank threads, so the
  distributed algorithms compute real numbers that are tested against the
  sequential implementation);
* **communication statistics** (bytes and message counts per rank — the
  quantities the paper's Table III reports);
* **simulated time** (logical clocks advanced with the machine model's α–β
  costs, which produce the strong-scaling numbers of Table II).

The implementation favours clarity and determinism over throughput: the
collectives are built on a shared slot table plus a reusable barrier, and
point-to-point messages go through per-destination mailboxes protected by a
condition variable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.simmpi.clock import LogicalClock
from repro.simmpi.machine import BGQ_MACHINE, MachineModel
from repro.simmpi.stats import CommStats

__all__ = ["CommWorld", "Communicator", "payload_nbytes"]

ANY_SOURCE = -1
ANY_TAG = -1


def payload_nbytes(payload: Any) -> int:
    """Approximate wire size of a payload (exact for ndarrays, heuristic otherwise)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    return 64  # conservative default for small Python objects


@dataclass
class _Message:
    source: int
    tag: int
    payload: Any
    nbytes: int
    send_time: float


class CommWorld:
    """Shared state of a simulated SPMD world of ``num_ranks`` ranks."""

    def __init__(self, num_ranks: int, machine: MachineModel = BGQ_MACHINE) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = int(num_ranks)
        self.machine = machine
        self.stats = [CommStats(rank=r) for r in range(num_ranks)]
        self.clocks = [LogicalClock(rank=r) for r in range(num_ranks)]
        self._mailboxes: List[List[_Message]] = [[] for _ in range(num_ranks)]
        self._mail_cv = [threading.Condition() for _ in range(num_ranks)]
        self._barrier = threading.Barrier(num_ranks)
        self._coll_lock = threading.Lock()
        self._coll_slots: Dict[str, List[Any]] = {}
        self._coll_results: Dict[str, Any] = {}

    def communicator(self, rank: int) -> "Communicator":
        return Communicator(self, rank)

    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        for s in self.stats:
            s.reset()

    def reset_clocks(self) -> None:
        for c in self.clocks:
            c.reset()

    def max_clock(self) -> float:
        return max(c.now for c in self.clocks)


class Communicator:
    """Per-rank handle into a :class:`CommWorld` (the ``MPI_COMM_WORLD`` analogue)."""

    def __init__(self, world: CommWorld, rank: int) -> None:
        if not 0 <= rank < world.num_ranks:
            raise ValueError(f"rank {rank} out of range")
        self.world = world
        self.rank = int(rank)
        self._generations: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self.world.num_ranks

    @property
    def stats(self) -> CommStats:
        return self.world.stats[self.rank]

    @property
    def clock(self) -> LogicalClock:
        return self.world.clocks[self.rank]

    @property
    def machine(self) -> MachineModel:
        return self.world.machine

    def advance_compute(self, seconds: float, category: str = "compute") -> None:
        """Charge local (modelled) compute time to this rank's simulated clock."""
        self.clock.advance(seconds, category)

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send: deposits the message and returns."""
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} out of range")
        nbytes = payload_nbytes(payload)
        self.stats.record_send(dest, nbytes)
        message = _Message(
            source=self.rank,
            tag=int(tag),
            payload=payload,
            nbytes=nbytes,
            send_time=self.clock.now,
        )
        cv = self.world._mail_cv[dest]
        with cv:
            self.world._mailboxes[dest].append(message)
            cv.notify_all()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload.

        The receiver's simulated clock is synchronized to
        ``max(own clock, sender's send time) + message cost``.
        """
        cv = self.world._mail_cv[self.rank]
        with cv:
            while True:
                box = self.world._mailboxes[self.rank]
                for i, msg in enumerate(box):
                    if (source in (ANY_SOURCE, msg.source)) and (
                        tag in (ANY_TAG, msg.tag)
                    ):
                        box.pop(i)
                        self.stats.record_receive(msg.source, msg.nbytes)
                        arrival = max(self.clock.now, msg.send_time)
                        self.clock.synchronize(arrival, category="wait")
                        self.clock.advance(
                            self.machine.message_time(msg.nbytes), category="comm"
                        )
                        return msg.payload
                cv.wait()

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    def barrier(self) -> None:
        self._collective_op("barrier", None, 0, lambda values: None)

    # The collectives share one generic implementation.
    def _collective_op(
        self,
        kind: str,
        contribution: Any,
        nbytes: int,
        combine: Callable[[List[Any]], Any],
    ) -> Any:
        """Deposit a contribution, wait for every rank, combine, synchronize clocks.

        SPMD programs call collectives in the same order on every rank, so a
        per-rank generation counter keyed by ``kind`` yields an identical slot
        key on all ranks; the key is unique per call, which makes the cleanup
        (done by rank 0 after the exit barrier) race-free even when the same
        collective is called again immediately.
        """
        world = self.world
        generation = self._generations.get(kind, 0)
        self._generations[kind] = generation + 1
        key = f"{kind}#{generation}"
        cost = self.machine.collective_time(kind, nbytes, self.size)
        volume = self.machine.collective_volume(kind, nbytes, self.size)
        self.stats.record_collective(volume)

        with world._coll_lock:
            slots = world._coll_slots.setdefault(key, [None] * self.size)
            slots[self.rank] = (self.clock.now, contribution)
        world._barrier.wait()
        with world._coll_lock:
            entries = list(world._coll_slots[key])
        world._barrier.wait()
        if self.rank == 0:
            with world._coll_lock:
                world._coll_slots.pop(key, None)
        max_time = max(entry[0] for entry in entries)
        self.clock.synchronize(max_time, category="wait")
        self.clock.advance(cost, category="comm")
        return combine([entry[1] for entry in entries])

    def bcast(self, payload: Any, root: int = 0) -> Any:
        nbytes = payload_nbytes(payload) if self.rank == root else 0
        all_nbytes = self._collective_op(
            "bcast", nbytes, 8, lambda values: max(values)
        )
        return self._collective_op(
            "bcast", payload if self.rank == root else None, all_nbytes,
            lambda values: values[root],
        )

    def reduce(self, array: np.ndarray, root: int = 0, op: str = "sum") -> Optional[np.ndarray]:
        result = self.allreduce(array, op=op)
        return result if self.rank == root else None

    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        array = np.asarray(array)

        def combine(values: List[np.ndarray]) -> np.ndarray:
            stacked = [np.asarray(v) for v in values]
            if op == "sum":
                out = stacked[0].copy()
                for v in stacked[1:]:
                    out = out + v
                return out
            if op == "max":
                out = stacked[0].copy()
                for v in stacked[1:]:
                    out = np.maximum(out, v)
                return out
            if op == "min":
                out = stacked[0].copy()
                for v in stacked[1:]:
                    out = np.minimum(out, v)
                return out
            raise ValueError(f"unknown reduction op {op!r}")

        return self._collective_op("allreduce", array, array.nbytes, combine)

    def allgather(self, payload: Any) -> List[Any]:
        return self._collective_op(
            "allgather", payload, payload_nbytes(payload), lambda values: values
        )

    def gather(self, payload: Any, root: int = 0) -> Optional[List[Any]]:
        values = self._collective_op(
            "gather", payload, payload_nbytes(payload), lambda v: v
        )
        return values if self.rank == root else None

    def alltoall(self, payloads: Sequence[Any]) -> List[Any]:
        """Personalized all-to-all: ``payloads[d]`` goes to rank ``d``."""
        if len(payloads) != self.size:
            raise ValueError("alltoall needs one payload per destination rank")
        nbytes = sum(payload_nbytes(p) for p in payloads)

        def combine(values: List[Sequence[Any]]) -> List[Any]:
            return [values[src][self.rank] for src in range(self.size)]

        return self._collective_op("alltoall", list(payloads), nbytes, combine)
