"""Persistent worker crews and shared-memory generations for true-multicore HOOI.

The thread dispatcher runs a plan's range body on threads; its sparse ×
dense segment-sums release the GIL, but the per-block Python work between
them does not, so threads scale only on large ranges.  This module runs the
same lock-free ranges on worker *processes* with zero-copy shared memory:

* A :class:`PersistentWorkerCrew` is a set of long-lived worker processes.
* A :class:`HOOIProcessPool` is one *generation* on a crew: it packs one
  work plan (:mod:`repro.engine.plans` — COO rows, CSF root-fiber slabs or
  dimension-tree edges) into a :class:`~repro.parallel.shm.ShmArena` —
  the plan's symbolic arrays, factors and ``|J_n| × W`` output blocks —
  and every worker rebuilds the plan from its views plus a small meta
  (:func:`~repro.engine.plans.attach_plan`).
* Numeric work is dispatched as tiny ``(key, start, stop)`` descriptors
  over the same dynamic :func:`~repro.parallel.parallel_for.make_chunks`
  chunks the thread dispatcher uses; a worker runs the plan's range body,
  which writes a row-disjoint slice of the shared output — no locks, and
  no result pickling.
* Factor refreshes are *broadcast by memory*: after each TRSVD the driver
  writes the new ``U_n`` into its shared segment (:meth:`write_factor`); the
  queue hand-off of the next task batch orders the write before any read, so
  workers always compute with current factors.  For the dimension tree the
  driver's version counters decide which edges went stale; workers stay
  stateless and simply execute the ranges they are handed.

A generation built without ``crew=`` spawns a private crew and owns it;
with ``crew=`` it attaches on construction and detaches on close, leaving
the processes alive for the next generation.  A :class:`CrewSlot` holds
one crew and builds or replaces it on demand: the service keeps one per
service (:class:`~repro.serving.pool_manager.HOOIPoolManager`), and
:data:`PROCESS_CREW` is the one a process's ``hooi(execution="process")``
runs borrow (:class:`~repro.engine.backend.ProcessDispatcher`), so only a
process's first crew run pays the spawn.  :meth:`HOOIProcessPool.close`
is idempotent and crash-safe (the arena unlinks its segments even on
abnormal teardown).

The workers of a generation built with ``split_trsvd`` also solve a
mode's Lanczos TRSVD together (:meth:`HOOIProcessPool.trsvd`): one *rank
task* per rank, each over a contiguous row block of the mode's shared
``out{n}`` block, with the Lanczos loop's reductions summed through a
small segment of the arena (:mod:`repro.parallel.crew_trsvd`).  A rank
sits in a barrier until every rank has its task, so no worker takes two.
When the driver finds a worker dead mid-batch it sets the arena's abort
word, so the surviving ranks leave their barriers, and it raises
:class:`WorkerCrashError` as for any batch.

Between generations a crew worker can also run one *whole job*
(:meth:`PersistentWorkerCrew.run_job`): a module-level callable and its
payload arrive over the worker's private control queue, and the value,
plus any progress the job reports, comes back over the worker's own
result queue.  Each worker has a cancel flag in shared memory that the
job polls.  A worker limits OpenBLAS to one thread before its first whole
job or rank task (:mod:`repro.parallel.blas`), because its siblings run
beside it; a range body calls no BLAS, so crews that only serve TTMc
ranges never pay for the limit.

To debug a plan's worker side in-process, rebuild it exactly as a worker
does: ``attach_plan(ShmView(pool._arena.specs), meta)`` with the meta the
plan's ``pack`` returned.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import multiprocessing as mp

import numpy as np

from repro.core.trsvd import TRSVDResult
from repro.parallel import blas, crew_trsvd
from repro.parallel.parallel_for import make_chunks
from repro.parallel.shm import ShmArena, ShmView
from repro.resilience.faults import maybe_fail

__all__ = [
    "PROCESS_CREW",
    "CrewSlot",
    "ProcessConfig",
    "WorkerCrashError",
    "HOOIProcessPool",
    "PersistentWorkerCrew",
    "WorkerJob",
    "default_start_method",
]

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_PROCESS_START_METHOD"

#: How often a thread waiting on a whole job checks the worker's liveness
#: and forwards a cancellation (replies wake it at once).
_JOB_POLL_SECONDS = 0.05

#: The key of a rank task, ``(RANK_TASK, mode, index, count, rank, tol,
#: seed)``, beside the plan's range keys.
RANK_TASK = "__trsvd_rank__"


def default_start_method() -> str:
    """``fork`` where available (cheap startup), else ``spawn``.

    ``REPRO_PROCESS_START_METHOD`` overrides it for every crew, pool and
    service alike — ``spawn`` gives workers a pristine interpreter at the
    cost of re-importing NumPy.
    """
    override = os.environ.get(START_METHOD_ENV)
    if override:
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class ProcessConfig:
    """Configuration of the process pool.

    ``startup_timeout`` bounds the wait for every worker to attach a
    generation (slow hosts, or ``spawn`` re-importing NumPy).  The start
    method is :func:`default_start_method`'s.
    """

    num_workers: int = 1
    startup_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")


class WorkerCrashError(RuntimeError):
    """A worker process died while (or before) executing dispatched work."""


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
_one_blas_thread_pid: Optional[int] = None


def _one_blas_thread() -> None:
    """Limit this worker's OpenBLAS to one thread, once per process.

    A worker forked from a driver that already runs one thread inherits
    that count; setting it again would restart the library's thread pool
    after the fork, and its new helpers spin beside the sibling workers.
    """
    global _one_blas_thread_pid
    if _one_blas_thread_pid != os.getpid():
        if any(count != 1 for count in blas.thread_counts()):
            blas.set_threads(1)
        _one_blas_thread_pid = os.getpid()


def _generation_loop(worker_id: int, plan, view, task_q, done_q) -> None:
    """Run range bodies and rank tasks until the detach sentinel arrives."""
    while True:
        task = task_q.get()
        if task is None:
            return
        task_id, key, *args = task
        try:
            if key == RANK_TASK:
                mode, *rank_args = args
                _one_blas_thread()
                crew_trsvd.run_rank(view, plan.outs[mode], *rank_args)
            else:
                plan.body(key, *args)
            error = None
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
        # Fault point "worker.ack": firing here (action="exit") kills the
        # worker after it did the work but before the driver hears back —
        # the scripted equivalent of a mid-task SIGKILL.
        maybe_fail("worker.ack")
        done_q.put((task_id, worker_id, error))


class WorkerJob:
    """What a whole job sees of the worker it runs on.

    ``state`` persists across the worker's jobs (a job keeps its workspace
    pool there); :meth:`cancelled` reads the worker's shared cancel flag;
    :meth:`report` relays a progress message to the thread waiting on the
    job (:meth:`PersistentWorkerCrew.run_job`).
    """

    def __init__(self, worker_id: int, result_q, cancel) -> None:
        self.worker_id = worker_id
        self.state: dict = {}
        self._result_q = result_q
        self._cancel = cancel

    def cancelled(self) -> bool:
        return bool(self._cancel[self.worker_id])

    def report(self, message) -> None:
        # Fault point "worker.job": firing here (action="exit") kills the
        # worker in the middle of a whole job, after a progress report.
        maybe_fail("worker.job")
        self._result_q.put(("__progress__", message))


def _run_whole_job(job: WorkerJob, command: bytes, result_q) -> None:
    """Run a pickled ``(fn, payload)`` as ``fn(payload, job)``; send the value.

    The value is pickled here, not by the queue's feeder thread, so a value
    that cannot be pickled becomes an error reply instead of a lost one.
    """
    try:
        fn, payload = pickle.loads(command)
        value = fn(payload, job)
        reply = ("__done__", pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        reply = ("__error__", f"{type(exc).__name__}: {exc}")
    result_q.put(reply)


def _worker_main(worker_id: int, task_q, done_q, ctrl_q, result_q, cancel) -> None:
    """Crew worker entry point.

    Blocks on the private control queue.  A ``("__job__", command)``
    message runs one whole job (:func:`_run_whole_job`).  An
    ``("__attach__", specs, meta)`` command rebuilds the generation's plan
    over zero-copy views of its arena, serves range tasks until the shared
    work queue delivers the detach sentinel, acks ``"__detached__"`` and
    loops.
    """
    from repro.engine.plans import attach_plan

    job = None
    while True:
        command = ctrl_q.get()
        if command is None or command[0] == "__stop__":
            return
        if command[0] == "__job__":
            if job is None:
                # Siblings run whole jobs beside this one: one BLAS thread.
                _one_blas_thread()
                job = WorkerJob(worker_id, result_q, cancel)
            _run_whole_job(job, command[1], result_q)
            continue
        if command[0] != "__attach__":  # pragma: no cover - defensive
            continue
        _, specs, meta = command
        try:
            view = ShmView(specs)
            try:
                plan = attach_plan(view, meta)
            except BaseException:
                view.close()
                raise
        except BaseException as exc:
            done_q.put(("__ready__", worker_id, f"{type(exc).__name__}: {exc}"))
            continue
        done_q.put(("__ready__", worker_id, None))
        try:
            _generation_loop(worker_id, plan, view, task_q, done_q)
        finally:
            plan = None  # drop the plan's views so the segments can unmap
            view.close()
        done_q.put(("__detached__", worker_id, None))


# --------------------------------------------------------------------------- #
# Driver side
# --------------------------------------------------------------------------- #
def _resolve_config(config, crew) -> ProcessConfig:
    """The pool config, defaulted (and size-checked later) against a crew."""
    if config is not None:
        return config
    if crew is not None:
        return ProcessConfig(num_workers=crew.num_workers)
    return ProcessConfig()


class PersistentWorkerCrew:
    """Long-lived worker processes serving many pool generations.

    The processes are spawned once (here) and each :class:`HOOIProcessPool`
    generation merely *attaches* them to its shared arena (one
    ``("__attach__", specs, meta)`` command per worker over its private
    control queue) and *detaches* them on close (the shared-queue sentinel
    trick: one ``None`` per worker — a worker that took one is back on its
    control queue and cannot take a second), leaving the processes alive
    for the next generation.  A service keeps one crew for its lifetime,
    and a process keeps one for its ``hooi(execution="process")`` runs
    (:data:`PROCESS_CREW`), so process spawn + NumPy import costs are paid
    once, not per run.

    Between generations each worker can run one whole job at a time
    (:meth:`run_job`), so up to ``num_workers`` jobs run side by side.  A
    generation needs every worker: the owner must not attach one while a
    whole job is in flight, nor start a whole job while a generation is
    attached (the service's dispatcher keeps the two apart).  A crew whose
    worker died — or that timed out detaching — is *broken*: :attr:`alive`
    turns false and the owner is expected to :meth:`close` it and build a
    fresh one (the serving layer's crash-retry path).
    """

    def __init__(self, num_workers: int = 1) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.generations = 0
        self._closed = False
        self._broken = False
        ctx = mp.get_context(default_start_method())
        self.task_q = ctx.Queue()
        self.done_q = ctx.Queue()
        self.ctrl_qs = [ctx.Queue() for _ in range(num_workers)]
        # Whole jobs: one result queue per worker, so a worker that dies
        # mid-job cannot block its siblings' replies, and one cancel flag
        # per worker in shared memory.
        self.result_qs = [ctx.Queue() for _ in range(num_workers)]
        self._cancel = ctx.RawArray("b", num_workers)
        self.workers: List[mp.process.BaseProcess] = []
        try:
            for worker_id in range(num_workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id, self.task_q, self.done_q,
                        self.ctrl_qs[worker_id], self.result_qs[worker_id],
                        self._cancel,
                    ),
                    name=f"repro-crew-worker-{worker_id}",
                    daemon=True,
                )
                proc.start()
                self.workers.append(proc)
        except BaseException:
            self.close()
            raise

    @property
    def alive(self) -> bool:
        """Whether the crew can serve another generation."""
        return (
            not self._closed
            and not self._broken
            and all(w.is_alive() for w in self.workers)
        )

    def mark_broken(self) -> None:
        """Retire the crew (a worker died or a detach timed out)."""
        self._broken = True

    def attach(self, specs, meta: dict) -> None:
        """Broadcast a generation's attach command to every worker."""
        if not self.alive:
            raise WorkerCrashError(
                "the worker crew is closed, broken or has dead workers; "
                "build a fresh crew"
            )
        for ctrl_q in self.ctrl_qs:
            ctrl_q.put(("__attach__", specs, meta))
        self.generations += 1

    def run_job(
        self,
        worker_id: int,
        fn: Callable[[Any, WorkerJob], Any],
        payload,
        *,
        on_progress: Optional[Callable[[Any], None]] = None,
        cancelled: Optional[Callable[[], bool]] = None,
    ):
        """Run ``fn(payload, job)`` whole on worker ``worker_id``; return its value.

        ``fn`` must be a module-level callable (it is pickled by reference,
        with ``payload``, on the calling thread) and the worker must be
        idle: not attached to a generation and not running another whole
        job.  The calling thread blocks until the value arrives.  Every
        message the job reports (:meth:`WorkerJob.report`) goes to
        ``on_progress``; once ``cancelled()`` turns true the worker's cancel
        flag is set.  A worker that dies mid-job raises
        :class:`WorkerCrashError`; an ``fn`` that raises (or returns a value
        that cannot be pickled) raises :class:`RuntimeError`.
        """
        worker = self.workers[worker_id]
        if self._closed or self._broken or not worker.is_alive():
            raise WorkerCrashError(
                f"worker {worker_id} cannot take a job: the crew is closed, "
                "broken or the worker is dead"
            )
        # Pickled here: a payload that cannot be pickled raises now, rather
        # than being dropped by the queue's feeder thread.
        command = pickle.dumps((fn, payload), pickle.HIGHEST_PROTOCOL)
        result_q = self.result_qs[worker_id]
        self._cancel[worker_id] = 0
        self.ctrl_qs[worker_id].put(("__job__", command))
        while True:
            if cancelled is not None and cancelled():
                self._cancel[worker_id] = 1
            try:
                tag, value = result_q.get(timeout=_JOB_POLL_SECONDS)
            except queue_module.Empty:
                if not worker.is_alive():
                    raise WorkerCrashError(
                        f"worker {worker_id} died mid-job "
                        f"(exit code {worker.exitcode})"
                    ) from None
                continue
            if tag == "__progress__":
                if on_progress is not None:
                    on_progress(value)
            elif tag == "__done__":
                return pickle.loads(value)
            else:
                raise RuntimeError(f"worker {worker_id} job failed: {value}")

    def close(self) -> None:
        """Stop and reap the worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # A whole job in flight stops at its next cancel check.
        for worker_id in range(self.num_workers):
            self._cancel[worker_id] = 1
        for ctrl_q in self.ctrl_qs:
            try:
                ctrl_q.put(("__stop__",))
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
        # A worker mid-generation is blocked on the shared task queue, not
        # its control queue; feed it a detach sentinel so it can exit.
        for _ in self.workers:
            try:
                self.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - defensive
                break
        for worker in self.workers:
            worker.join(timeout=2.0)
        for worker in self.workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():  # pragma: no cover - last resort
                worker.kill()
                worker.join(timeout=1.0)
        # After a clean stop every worker has read its control queue, so the
        # feeder threads can flush and exit now.  Left running, a daemon
        # feeder that outlives its queue frees the queue's semaphores from
        # a thread the interpreter is shutting down, and the resource
        # tracker then reports them leaked.  A killed worker may have left
        # a pipe full, so that path must not wait.
        clean = all(worker.exitcode == 0 for worker in self.workers)
        for q in (self.task_q, self.done_q, *self.ctrl_qs, *self.result_qs):
            try:
                q.close()
                if clean:
                    q.join_thread()
                else:
                    q.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass

    def __enter__(self) -> "PersistentWorkerCrew":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "closed" if self._closed
            else ("broken" if not self.alive else "live")
        )
        return (
            f"PersistentWorkerCrew(workers={self.num_workers}, "
            f"generations={self.generations}, {state})"
        )


class CrewSlot:
    """Holds at most one crew; builds it on demand and replaces it when unfit.

    A held crew serves a request for ``num_workers`` workers when it has
    that width, is alive and was made by this process.  Otherwise it is
    retired: closed, or only forgotten when another process made it (this
    one forked since; its workers are that process's children, which this
    one may neither test nor join).  ``generations`` counts the pool
    generations of every crew the slot held.  Thread-safe.

    :meth:`lend` hands the crew to one generation at a time, for callers
    that share the slot without coordinating (:data:`PROCESS_CREW`).  The
    service's :class:`~repro.serving.pool_manager.HOOIPoolManager` keeps
    its generations and whole jobs apart itself, so it takes the crew
    without lending it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._crew: Optional[PersistentWorkerCrew] = None
        self._pid = os.getpid()
        self._lent = False
        self._generations_retired = 0

    def _held(self) -> Optional[PersistentWorkerCrew]:
        """The held crew; forgotten first when another process made it."""
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._crew, self._lent, self._generations_retired = None, False, 0
        return self._crew

    def _retire(self) -> None:
        crew = self._held()
        self._crew, self._lent = None, False
        if crew is not None:
            self._generations_retired += crew.generations
            crew.close()

    def _crew_for(self, num_workers: int) -> PersistentWorkerCrew:
        """The held crew, built or replaced to serve ``num_workers`` (locked)."""
        crew = self._held()
        if crew is not None and (crew.num_workers != num_workers or not crew.alive):
            self._retire()
        if self._crew is None:
            # Look the BLAS thread setters up here, so forked workers
            # inherit them for their first whole job.
            blas.can_set_threads()
            self._crew = PersistentWorkerCrew(num_workers)
        return self._crew

    def lend(self, num_workers: int) -> Optional[PersistentWorkerCrew]:
        """The crew for one generation, or ``None`` while it is lent out."""
        with self._lock:
            if self._held() is not None and self._lent:
                return None
            crew = self._crew_for(num_workers)
            self._lent = True
            return crew

    def give_back(self) -> None:
        """End the current :meth:`lend`."""
        with self._lock:
            self._lent = False

    def current(self) -> Optional[PersistentWorkerCrew]:
        """The held crew while it is alive, else ``None``; never builds one."""
        with self._lock:
            crew = self._held()
            return crew if crew is not None and crew.alive else None

    def retire(self) -> None:
        """Close the held crew (forget one another process made)."""
        with self._lock:
            self._retire()

    @property
    def generations(self) -> int:
        """Pool generations served across every crew this slot held."""
        with self._lock:
            crew = self._held()
            live = crew.generations if crew is not None else 0
            return self._generations_retired + live


#: The crew this process's ``hooi(execution="process")`` runs borrow when
#: the caller passes none; closed at interpreter exit.
PROCESS_CREW = CrewSlot()
# Registered after multiprocessing's own exit hook (``repro.parallel.shm``
# imports it), so it runs first: the crew stops its workers cleanly before
# multiprocessing would terminate them.
atexit.register(PROCESS_CREW.retire)


class HOOIProcessPool:
    """One generation: a work plan packed into a shared arena on a crew.

    Construct it over a plan (``ranks`` set: they size the factor and
    output segments), drive it with :meth:`ttmc` / :meth:`run` /
    :meth:`trsvd` / :meth:`write_factor`, and release it with :meth:`close`
    (or use it as a context manager).  Once packed, the driver-side plan
    reads and writes the shared segments its workers see.  Factor segments
    start zeroed: write the initial factors before the first :meth:`ttmc`.
    With ``split_trsvd`` the arena also holds, next to the plan, the
    segments that :meth:`trsvd`'s ranks reduce through and write their
    results into.  A process run asks for them only when one of its modes
    will split (:class:`~repro.engine.backend.ProcessDispatcher`): it sends
    :meth:`trsvd` each Lanczos solve of a block with at least
    :data:`~repro.engine.backend.CREW_TRSVD_MIN_ELEMENTS` elements, on
    min(workers, usable CPUs) ranks, and solves the rest on the driver.
    The split's sums depend on the rank count at rounding level.

    Without ``crew`` the generation spawns a private
    :class:`PersistentWorkerCrew` and closes it with itself; with ``crew``
    it attaches the caller's crew and detaches — but keeps alive — on close.
    ``hooi(execution="process")`` runs always pass a crew: the caller's,
    else the one they borrow from :data:`PROCESS_CREW`; only a run that
    finds that crew lent to another generation gets a private one.
    """

    def __init__(self, plan, *, config: Optional[ProcessConfig] = None,
                 crew: Optional[PersistentWorkerCrew] = None,
                 split_trsvd: bool = False) -> None:
        self._plan = plan
        self.config = _resolve_config(config, crew)
        self._arena = ShmArena()
        self._crew = crew
        self._owns_crew = crew is None
        self._closed = False
        self._broken = False
        self._attached = False
        self._task_counter = 0
        self.workers: List[mp.process.BaseProcess] = []
        try:
            meta = plan.pack(self._arena)
            if split_trsvd:
                crew_trsvd.pack(self._arena, plan, self.config.num_workers)
            if crew is None:
                crew = self._crew = PersistentWorkerCrew(self.config.num_workers)
            elif crew.num_workers != self.config.num_workers:
                raise ValueError(
                    f"the crew has {crew.num_workers} workers but the "
                    f"pool config asks for {self.config.num_workers}; size "
                    "the ProcessConfig from crew.num_workers"
                )
            self.workers = crew.workers
            self._task_q = crew.task_q
            self._done_q = crew.done_q
            crew.attach(self._arena.specs, meta)
            self._attached = True
            try:
                self._wait_ready()
            except BaseException:
                # A partial attach leaves workers split between the control
                # and generation loops; a detach broadcast could poison a
                # later generation, so retire the crew instead.
                crew.mark_broken()
                self._attached = False
                raise
        except BaseException:
            self.close()
            raise

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def for_csf(
        cls,
        trees,
        tensor,
        factors,
        ranks,
        dtype,
        *,
        config: Optional[ProcessConfig] = None,
        kernel: str = "numpy",
        crew: Optional[PersistentWorkerCrew] = None,
    ) -> "HOOIProcessPool":
        """A one-plan generation over CSF ``trees`` with ``factors`` written in.

        The plan is a :class:`~repro.engine.plans.CSFSlabPlan`; ``tensor``
        and ``dtype`` describe what the trees were built from (their values
        must already carry ``dtype``).
        """
        from repro.engine.plans import CSFSlabPlan

        plan = CSFSlabPlan(trees, ranks, kernel=kernel)
        if plan.dtype != np.dtype(dtype) or plan.shape != tuple(tensor.shape):
            raise ValueError(
                f"the trees hold {plan.dtype} values of shape {plan.shape}, "
                f"not {np.dtype(dtype)} of shape {tuple(tensor.shape)}"
            )
        pool = cls(plan, config=config, crew=crew)
        for mode, factor in enumerate(factors):
            pool.write_factor(mode, factor)
        return pool

    # -- dispatch -------------------------------------------------------- #
    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("the process pool is closed")
        if self._broken:
            raise WorkerCrashError(
                "the process pool is broken (a worker died or a task failed); "
                "close() it and build a new pool"
            )
        dead = [w for w in self.workers if not w.is_alive()]
        if dead:
            self._broken = True
            raise WorkerCrashError(
                f"{len(dead)} worker process(es) died "
                f"(exit codes {[w.exitcode for w in dead]})"
            )

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + self.config.startup_timeout
        ready = 0
        while ready < len(self.workers):
            try:
                tag, worker_id, error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if any(not w.is_alive() for w in self.workers):
                    raise WorkerCrashError(
                        "a worker process died during startup"
                    ) from None
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "worker processes did not report ready within "
                        f"{self.config.startup_timeout:.0f}s"
                    )
                continue
            if tag != "__ready__":  # pragma: no cover - defensive
                continue
            if error is not None:
                raise RuntimeError(
                    f"worker {worker_id} failed to attach shared memory: {error}"
                )
            ready += 1

    def _dispatch(self, tasks: List[Tuple]) -> None:
        """Enqueue a batch of chunk descriptors and wait for all acks."""
        self._check_usable()
        maybe_fail("pool.dispatch")
        pending = set()
        for task in tasks:
            task_id = self._task_counter
            self._task_counter += 1
            self._task_q.put((task_id,) + tuple(task))
            pending.add(task_id)
        errors: List[str] = []
        while pending:
            try:
                task_id, _worker_id, error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if any(not w.is_alive() for w in self.workers):
                    self._broken = True
                    if "trsvd-sync" in self._arena:
                        # Ranks waiting for a dead peer leave their barriers.
                        crew_trsvd.abort(self._arena)
                    dead = [w for w in self.workers if not w.is_alive()]
                    raise WorkerCrashError(
                        f"{len(dead)} worker process(es) died mid-batch "
                        f"(exit codes {[w.exitcode for w in dead]})"
                    ) from None
                continue
            pending.discard(task_id)
            if error is not None:
                errors.append(error)
        if errors:
            self._broken = True
            # Report the failure itself, not a rank that left because of it.
            aborted = crew_trsvd.RankAborted.__name__
            cause = next((e for e in errors if not e.startswith(aborted)), errors[0])
            raise RuntimeError(f"worker task failed: {cause}")

    # -- public operations ----------------------------------------------- #
    def run(self, key) -> None:
        """Execute every item of ``key`` on the workers."""
        self._check_usable()
        num_items = self._plan.items(key)
        if num_items:
            self._dispatch([
                (key, start, stop)
                for start, stop in make_chunks(num_items, self.config.num_workers)
            ])

    def ttmc(self, mode: int) -> np.ndarray:
        """The compact ``|J_n| × W`` block of ``Y_(mode)``, in its shared buffer.

        The plan decides which ranges that takes: the mode's rows
        or root-fiber slabs, or the stale edges on a dimension tree's
        root-to-leaf path; either way each range writes a disjoint row set.
        """
        self._check_usable()
        return self._plan.ttmc(mode, self.run)

    def trsvd(
        self, mode: int, rank: int, count: int, *, tol: float,
        seed: Optional[int],
    ) -> TRSVDResult:
        """Lanczos TRSVD of ``mode``'s shared block, split over ``count`` workers.

        Rank ``k`` runs :func:`~repro.core.trsvd.lanczos_svd` over the
        ``k``-th of ``count`` contiguous row blocks of the block :meth:`ttmc`
        last returned (:mod:`repro.parallel.crew_trsvd`); the result holds
        every row's left vectors and rank 0's counters, singular values and
        right vectors, which every rank must match bit for bit.  ``count``
        is at most the number of workers and of the block's rows.  Every
        rank starts from ``seed``'s right vector; ``None`` draws one seed
        here, for all of them.  The generation must have been built with
        ``split_trsvd``.
        """
        self._check_usable()
        if "trsvd-sync" not in self._arena:
            raise RuntimeError("this generation was built without split_trsvd")
        rows, _ = self._arena[f"out{mode}"].shape
        if not 1 <= count <= min(len(self.workers), rows):
            raise ValueError(
                f"a split TRSVD needs 1 to {min(len(self.workers), rows)} "
                f"ranks, not {count}"
            )
        # Fault point "trsvd": the factor update, as on the driver path.
        maybe_fail("trsvd")
        if seed is None:
            # Ranks that drew their own start vectors would sum vectors of
            # different solves.
            seed = int(np.random.SeedSequence().entropy)
        crew_trsvd.reset(self._arena)
        self._dispatch([
            (RANK_TASK, mode, index, count, rank, tol, seed)
            for index in range(count)
        ])
        return crew_trsvd.collect(
            self._arena, self._arena[f"out{mode}"].shape, rank, count
        )

    def write_factor(self, mode: int, array: np.ndarray) -> None:
        """Broadcast a refreshed factor by writing its shared segment.

        The write happens-before the next task dispatch (queue hand-off), so
        workers never read a half-updated factor.
        """
        if self._closed:
            raise RuntimeError("the process pool is closed")
        segment = self._arena[f"factor{mode}"]
        array = np.asarray(array, dtype=segment.dtype)
        if array.shape != segment.shape:
            raise ValueError(
                f"factor for mode {mode} has shape {array.shape}, but the "
                f"shared segment is {segment.shape}: the process backend "
                "requires fixed factor shapes across iterations"
            )
        segment[...] = array

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """OS names of the arena's segments (for leak checks in tests)."""
        return self._arena.segment_names

    # -- lifecycle ------------------------------------------------------- #
    def _detach(self) -> None:
        """Detach the crew's workers from this arena (keep them alive).

        One ``None`` sentinel per worker ends the generation loop; each
        worker closes its views and acks ``"__detached__"``.  Waiting for
        every ack before unlinking the arena guarantees no worker still
        holds a mapping when the segments are destroyed — the no-leaked-
        ``/dev/shm`` property the service's teardown test pins down.  A
        dead or unresponsive worker makes a deterministic detach
        impossible, so the crew is retired instead (its own ``close`` reaps
        the processes).
        """
        crew = self._crew
        if not self._attached:
            return
        self._attached = False
        if any(not w.is_alive() for w in crew.workers):
            crew.mark_broken()
            return
        for _ in crew.workers:
            self._task_q.put(None)
        remaining = len(crew.workers)
        deadline = time.monotonic() + 10.0
        while remaining:
            try:
                tag, _worker_id, _error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if (
                    time.monotonic() > deadline
                    or any(not w.is_alive() for w in crew.workers)
                ):
                    crew.mark_broken()
                    return
                continue
            if tag == "__detached__":
                remaining -= 1
            # Anything else is a stale ack of a batch that died mid-flight;
            # drain and drop it so the next generation starts clean.

    def close(self) -> None:
        """Detach the workers and destroy the shared segments (idempotent).

        A private crew is closed too; a caller's crew lives on for the next
        generation.
        """
        if self._closed:
            self._arena.unlink()
            return
        self._closed = True
        try:
            self._detach()
        finally:
            self._arena.close()
            self._arena.unlink()
            if self._owns_crew and self._crew is not None:
                self._crew.close()

    def __enter__(self) -> "HOOIProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("broken" if self._broken else "live")
        return (
            f"HOOIProcessPool(workers={len(self.workers)}, "
            f"plan={self._plan.kind}, {state})"
        )
