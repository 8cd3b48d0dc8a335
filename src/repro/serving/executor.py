"""How the service runs one job: the ordinary engine entry, in one of two lanes.

Every job is one :func:`repro.core.hooi.hooi` call; the engine applies its
own dtype cast, initializer, warm start and resume either way.

* **Worker lane** (:func:`run_on_worker`).  A process job *below* the
  crew's break-even (:func:`worker_eligible`) runs whole on one idle
  worker of the service's live crew: the payload — tensor, ranks, options
  with any warm start substituted, timeout, checkpointer and resume state,
  all computed service-side — goes to the worker, which makes
  :func:`run_direct`'s call minus ``crew=`` (:func:`run_whole`) with its
  own workspace pool and a cancel check over its shared cancel flag.
  Progress comes back into ``job.progress``.  The service thread that
  placed the job blocks on that worker's result queue, so up to
  ``num_workers`` such jobs run at once, one per worker.
* **Alone** (:func:`run_direct`), on a service executor thread while no
  worker job is in flight.  A :func:`pooled_eligible` job (a process job
  whose TTMc work reaches the break-even) passes the service's
  :class:`~repro.parallel.process_pool.PersistentWorkerCrew` down as
  ``hooi(..., crew=)``: its process dispatcher packs the job's work plan
  (COO rows, CSF root-fiber slabs or a dimension tree,
  :mod:`repro.engine.plans`) into one generation on every worker, so the
  job pays one worker attach/detach and zero process spawns.  Sequential
  and thread jobs run here without a crew, and so does a small process job
  when the service has no live crew (the engine then runs it inline).

Every job's outcome is reported as a ``(job, kind, payload)`` tuple with
``kind`` in ``{"ok", "cancelled", "timeout", "crash", "error"}``; the
service applies it on the event-loop thread (crash outcomes feed the
retry path).  Nothing here touches asyncio — these functions run on the
service's executor threads, and :func:`run_whole` in a crew worker.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.core.hooi import hooi
from repro.engine.backend import crew_pays
from repro.engine.workspace import WorkspacePool
from repro.parallel.process_pool import (
    PersistentWorkerCrew,
    WorkerCrashError,
    WorkerJob,
)
from repro.resilience.checkpoint import CheckpointState
from repro.resilience.faults import maybe_fail
from repro.serving.jobs import (
    Job,
    JobCancelledError,
    JobTimeoutError,
    make_cancel_check,
)

__all__ = [
    "pooled_eligible",
    "run_direct",
    "run_on_worker",
    "run_whole",
    "worker_eligible",
]

#: Outcome kinds the service's dispatcher understands ("breaker" is
#: produced service-side when the pool's circuit is open).
OUTCOME_KINDS = ("ok", "cancelled", "timeout", "crash", "error", "breaker")

Outcome = Tuple[Job, str, object]


def pooled_eligible(job: Job) -> bool:
    """Whether a job runs as a pool generation on the service's crew.

    A process-execution job does, whatever its plan, when its TTMc work
    reaches the crew's break-even (:func:`~repro.engine.backend.crew_pays`,
    the rule ``decompose()`` applies); a smaller one — fresh or delta —
    is :func:`worker_eligible` instead, with the same result.  Judged on
    the job's *effective* options: a job the degradation ladder moved off
    the process tier runs without the crew from then on, whatever its
    request asked for.
    """
    request = job.request
    return job.effective_options.execution == "process" and crew_pays(
        request.tensor.nnz, request.ranks
    )


def worker_eligible(job: Job) -> bool:
    """Whether a job may run whole on one idle crew worker (the worker lane).

    A process-execution job below the crew's break-even may; whether it
    does depends on the service having a live crew when the job reaches
    the head of the queue.
    """
    request = job.request
    return job.effective_options.execution == "process" and not crew_pays(
        request.tensor.nnz, request.ranks
    )


def _kind(exc: BaseException) -> str:
    """The outcome kind of a run that raised ``exc``."""
    if isinstance(exc, JobCancelledError):
        return "cancelled"
    if isinstance(exc, JobTimeoutError):
        return "timeout"
    if isinstance(exc, WorkerCrashError):
        return "crash"
    return "error"


def _job_resume(job: Job) -> Optional[CheckpointState]:
    """The checkpoint state a retried/degraded attempt resumes from.

    A first attempt never resumes (there is nothing to resume *from*, and a
    stale rolling file would be rejected by the integrity/compat checks
    anyway — the service keys each job's checkpoint file by its cache-key
    fingerprints).  Later attempts load the rolling file when it exists;
    one that died before its first sweep completed simply starts fresh.
    """
    if job.checkpointer is None or job.attempts <= 1:
        return None
    return job.checkpointer.load()


def _warm_options(job: Job, opts, resume: Optional[CheckpointState]):
    """Substitute a delta job's warm-start factors as the initializer.

    A checkpoint resume outranks the warm seed — the checkpoint holds this
    very job's partial sweeps, strictly newer than the base result's
    factors — so the substitution only applies on a fresh first attempt.
    """
    if job.warm_factors is not None and resume is None:
        return dataclasses.replace(opts, init=list(job.warm_factors))
    return opts


def run_direct(
    job: Job,
    *,
    workspace: Optional[WorkspacePool] = None,
    crew: Optional[PersistentWorkerCrew] = None,
) -> Outcome:
    """Run one job through the ordinary driver on the calling thread.

    ``crew`` is the service's crew for a :func:`pooled_eligible` job: the
    run borrows it for one generation instead of spawning workers.
    """
    request = job.request
    try:
        maybe_fail("serving.run_direct")
        resume = _job_resume(job)
        result = hooi(
            request.tensor,
            list(request.ranks),
            _warm_options(job, job.effective_options, resume),
            callback=job.progress_callback,
            workspace=workspace,
            cancel_check=job.make_cancel_check(),
            checkpoint=job.checkpointer,
            resume=resume,
            crew=crew,
        )
    except BaseException as exc:
        return (job, _kind(exc), exc)
    return (job, "ok", result)


def run_whole(payload: tuple, worker: WorkerJob) -> Tuple[str, object]:
    """A worker-lane job, inside its crew worker: ``run_direct``'s call.

    ``payload`` is what :func:`run_on_worker` sends.  The run uses the
    worker's own workspace pool, reports ``(iteration, fit)`` progress, and
    checks the worker's cancel flag and the job's timeout at every mode
    boundary.  Returns ``(kind, result or exception)``.
    """
    job_id, tensor, ranks, options, timeout, checkpointer, resume = payload
    workspace = worker.state.get("workspace")
    if workspace is None:
        workspace = worker.state["workspace"] = WorkspacePool()
    try:
        result = hooi(
            tensor,
            list(ranks),
            options,
            callback=lambda iteration, fit: worker.report((iteration, fit)),
            workspace=workspace,
            cancel_check=make_cancel_check(job_id, timeout, worker.cancelled),
            checkpoint=checkpointer,
            resume=resume,
        )
    except Exception as exc:
        return (_kind(exc), exc)
    return ("ok", result)


def run_on_worker(
    job: Job, crew: PersistentWorkerCrew, worker_id: int
) -> Outcome:
    """Run one job whole on an idle worker of the service's crew.

    Blocks the calling executor thread until the worker replies; relays
    progress into ``job.progress`` and a requested cancellation into the
    worker's cancel flag.  A worker that dies mid-job is a ``"crash"``.
    """
    request = job.request
    try:
        maybe_fail("serving.run_direct")
        resume = _job_resume(job)
        payload = (
            job.id,
            request.tensor,
            request.ranks,
            _warm_options(job, job.effective_options, resume),
            job.timeout,
            job.checkpointer,
            resume,
        )
        kind, value = crew.run_job(
            worker_id,
            run_whole,
            payload,
            on_progress=lambda progress: job.progress_callback(*progress),
            cancelled=lambda: job.cancel_requested,
        )
    except Exception as exc:
        return (job, _kind(exc), exc)
    return (job, kind, value)
