"""Lanczos TRSVD on a crew's workers: row blocks and a shared-memory allreduce.

The paper's TRSVD reads ``Y_(n)`` only through MxV and MTxV products, which
is what lets its distributed HOOI split ``Y_(n)``'s rows over processes and
allreduce short vectors (Section III-B).  A process run does the same on
one node.  Each of ``count`` workers of a generation runs one *rank*: it
takes a contiguous row block of the shared ``out{n}`` block and runs the
unchanged :func:`~repro.core.trsvd.lanczos_svd` over a
:class:`RowBlockOperator`, whose MTxV and row-space reductions are sums
through the generation's arena (:class:`ShmAllreduce`).

* Every rank adds the partials in rank order, so every rank gets
  bit-identical sums: the same singular values, right vectors and restart
  decisions.  A run therefore repeats bit for bit.  Against a solve of the
  whole block on the driver, the sums differ at rounding level, like any
  parallel reduction, so the factors agree within the Lanczos tolerance.
* Each rank writes its left rows into the shared ``trsvd-left`` segment and
  a report (counters, singular values, right vectors) into its row of
  ``trsvd-reports``.  The driver checks that the reports agree and builds
  the result from them (:func:`collect`).
* Rank ``k`` runs on the ``k``-th usable CPU for the solve.  A barrier
  spins briefly and then yields its CPU: a host may give two processes
  one core.  It also reads an abort word.  The driver sets it
  when it finds a worker dead (:func:`abort`), and a rank sets it when its
  own solve fails, so no rank waits forever for a peer that will not come.
  A waiting rank that finds a peer finished short of its barrier raises
  too, instead of waiting for it.
* A rank publishes its partial, then its epoch, and its peers read the
  epoch, then the partial, with plain stores and loads and no fence.  The
  barrier relies on the CPU keeping stores, and loads, in program order,
  which x86-64 does and weaker orderings such as aarch64's do not, so a
  process run splits only on the machines in :data:`ORDERED_MACHINES`.

:class:`~repro.parallel.process_pool.HOOIProcessPool` packs the segments
(:func:`pack`) and dispatches one rank task per rank
(:meth:`~repro.parallel.process_pool.HOOIProcessPool.trsvd`);
:class:`~repro.engine.backend.ProcessDispatcher` decides which solves run
there.
"""

from __future__ import annotations

import contextlib
import os
from typing import Optional

import numpy as np

from repro.core.kron import kron_row_length
from repro.core.trsvd import (
    DenseOperator,
    RowSplitOperator,
    TRSVDResult,
    lanczos_svd,
)
from repro.resilience.faults import maybe_fail

__all__ = [
    "ORDERED_MACHINES",
    "RankAborted",
    "RowBlockOperator",
    "ShmAllreduce",
    "abort",
    "collect",
    "pack",
    "reset",
    "run_rank",
]

#: ``platform.machine()`` names of the CPUs whose memory order the barrier
#: relies on (x86-64 keeps stores in program order); elsewhere a process
#: run solves every TRSVD on the driver.
ORDERED_MACHINES = ("x86_64", "AMD64")

#: Report header: reductions, restarts, matvecs, rmatvecs, converged, rank.
_HEADER = 6

#: Barrier checks a waiting rank makes before it starts yielding its CPU.
_SPINS = 100


class RankAborted(RuntimeError):
    """A rank left its solve: a peer failed, died or fell out of step."""


def pack(arena, plan, workers: int) -> None:
    """Place the segments of split solves in a generation's arena.

    ``trsvd-sums`` holds two rounds of one partial per worker, as long as
    the widest ``Y_(n)`` row; ``trsvd-sync`` each worker's barrier epoch and
    finished flag, then the abort word; ``trsvd-reports`` one report per
    worker; ``trsvd-left`` the largest ``|J_n| × R_n`` block of left rows.
    """
    ranks = plan.ranks
    order = len(ranks)
    width = max(
        kron_row_length([ranks[t] for t in range(order) if t != n])
        for n in range(order)
    )
    rank = max(ranks)
    arena.create("trsvd-sums", (2, workers, width), np.float64)
    arena.zeros("trsvd-sync", (2 * workers + 1,), np.int64)
    arena.create("trsvd-reports", (workers, _HEADER + rank * (1 + width)), np.float64)
    arena.create(
        "trsvd-left",
        (max(plan.rows(n).shape[0] * ranks[n] for n in range(order)),),
        np.float64,
    )


def _left(segments, rows: int, rank: int) -> np.ndarray:
    """The ``rows × rank`` left block of a solve, in ``trsvd-left``."""
    return segments["trsvd-left"][: rows * rank].reshape(rows, rank)


def reset(segments) -> None:
    """Zero every epoch and finished flag before a solve (not the abort word)."""
    segments["trsvd-sync"][:-1] = 0


def abort(segments) -> None:
    """Make every rank leave its barrier: a worker died."""
    segments["trsvd-sync"][-1] = 1


class ShmAllreduce:
    """Sum-allreduce of short float64 vectors over ``count`` ranks.

    Reduction ``e`` (from 1) writes this rank's partial into round
    ``e % 2`` of ``trsvd-sums``, publishes epoch ``e`` and waits until every
    rank has; then every rank adds the round's partials in rank order.  A
    rank writes a round again only two reductions later, after every rank
    passed the barrier in between and so finished reading it.
    """

    def __init__(self, segments, index: int, count: int) -> None:
        self._sums = segments["trsvd-sums"]
        workers = self._sums.shape[1]
        sync = segments["trsvd-sync"]
        self._epochs = sync[:workers]
        self._finished = sync[workers : 2 * workers]
        self._abort = sync[2 * workers :]
        self.index = index
        self.count = count
        self.reductions = 0

    def __call__(self, partial: np.ndarray) -> np.ndarray:
        # Fault point "worker.trsvd": every reduction of every rank.
        maybe_fail("worker.trsvd")
        partial = np.asarray(partial, dtype=np.float64).ravel()
        size = partial.shape[0]
        slots = self._sums[self.reductions % 2, : self.count, :size]
        slots[self.index] = partial
        self.reductions += 1
        self._epochs[self.index] = self.reductions
        self._wait(self.reductions)
        total = slots[0].copy()
        for rank in range(1, self.count):
            total += slots[rank]
        return total

    def _wait(self, epoch: int) -> None:
        epochs = self._epochs[: self.count]
        spins = 0
        while min(epochs.tolist()) < epoch:
            spins += 1
            if spins > _SPINS:
                self._check_peers(epoch)
                os.sched_yield()

    def _check_peers(self, epoch: int) -> None:
        if self._abort[0]:
            raise RankAborted(f"rank {self.index} left its solve: another rank failed")
        for rank in range(self.count):
            if self._finished[rank] and self._epochs[rank] < epoch:
                self.abort()
                raise RankAborted(
                    f"rank {rank} finished its solve before reduction {epoch}: "
                    "the ranks fell out of step"
                )

    def finish(self) -> None:
        """Mark this rank's solve done."""
        self._finished[self.index] = 1

    def abort(self) -> None:
        """Make every rank leave its barrier: this rank's solve failed."""
        self._abort[0] = 1


class RowBlockOperator(RowSplitOperator, DenseOperator):
    """One rank's contiguous row block of ``Y_(n)``, multiplied in its dtype.

    ``matvec`` stays local (it returns this rank's rows); ``rmatvec`` and
    the row-space reductions are allreduces.
    """

    def __init__(self, block: np.ndarray, reduce: ShmAllreduce) -> None:
        super().__init__(block)
        self.rank = reduce.index
        self._reduce = reduce

    def allreduce(self, vector: np.ndarray) -> np.ndarray:
        return self._reduce(vector)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.allreduce(super().rmatvec(y))


@contextlib.contextmanager
def _own_cpu(index: int):
    """Run rank ``index`` on the ``index``-th usable CPU alone, then restore.

    Two ranks that yield to each other on one CPU stay there: each has just
    run, so the scheduler's balancer counts it cache-hot and moves neither
    to the idle CPU.  Ranks pin by index, so two crews splitting at once
    would share CPUs; a process run splits only when its crew leaves at
    most one usable CPU beside it
    (:class:`~repro.engine.backend.ProcessDispatcher`).
    """
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:  # no affinity call on this platform
        yield
        return
    os.sched_setaffinity(0, {sorted(cpus)[index % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _bounds(rows: int, count: int, index: int):
    """Rank ``index``'s rows of a static contiguous split into ``count``."""
    return rows * index // count, rows * (index + 1) // count


def run_rank(
    segments, block: np.ndarray, index: int, count: int, rank: int,
    tol: float, seed: Optional[int],
) -> None:
    """Rank ``index`` of ``count``: its share of the solve of ``block``."""
    reduce = ShmAllreduce(segments, index, count)
    lo, hi = _bounds(block.shape[0], count, index)
    try:
        with _own_cpu(index):
            result = lanczos_svd(
                RowBlockOperator(block[lo:hi], reduce), rank, tol=tol, seed=seed
            )
    except BaseException:
        reduce.abort()
        raise
    reduce.finish()
    k = result.rank
    _left(segments, block.shape[0], rank)[lo:hi, :k] = result.left
    report = segments["trsvd-reports"][index]
    report[:_HEADER] = (
        reduce.reductions, result.iterations, result.matvecs,
        result.rmatvecs, result.converged, k,
    )
    report[_HEADER : _HEADER + k] = result.singular_values
    report[_HEADER + k : _HEADER + k * (1 + block.shape[1])] = result.right.ravel()


def collect(segments, shape, rank: int, count: int) -> TRSVDResult:
    """The split solve of a ``shape`` block, once every rank has acked.

    Raises :class:`RuntimeError` when the ranks' reports differ: they ran
    one solve only if every rank saw the same reductions.
    """
    rows, width = shape
    reports = segments["trsvd-reports"]
    k = int(reports[0, 5])
    used = _HEADER + k * (1 + width)
    first = reports[0, :used]
    for other in range(1, count):
        if reports[other, :used].tobytes() != first.tobytes():
            raise RuntimeError(
                f"the crew's TRSVD ranks 0 and {other} disagree on the solve"
            )
    return TRSVDResult(
        left=_left(segments, rows, rank)[:, :k].copy(),
        singular_values=first[_HEADER : _HEADER + k].copy(),
        right=first[_HEADER + k :].reshape(width, k).copy(),
        iterations=int(first[1]),
        matvecs=int(first[2]),
        rmatvecs=int(first[3]),
        converged=bool(first[4]),
    )
