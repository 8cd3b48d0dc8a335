"""How the service runs one job: the ordinary engine entry, on or off the crew.

Every job goes through :func:`run_direct` — one :func:`repro.core.hooi.hooi`
call on the service's worker thread.  A job that is
:func:`pooled_eligible` (a process job whose TTMc work reaches the crew's
break-even) passes the service's
:class:`~repro.parallel.process_pool.PersistentWorkerCrew` down as
``hooi(..., crew=)``: its process dispatcher packs the job's work plan (COO
rows, CSF root-fiber slabs or a dimension tree, :mod:`repro.engine.plans`)
into one generation on those workers, so the job pays one worker
attach/detach and zero process spawns.  Every other job — sequential and
thread jobs, and process jobs below the break-even (which the engine then
runs inline) — runs without a crew.  Either way the engine applies its own
dtype cast, initializer, warm start and resume.

Every job's outcome is reported as a ``(job, kind, payload)`` tuple with
``kind`` in ``{"ok", "cancelled", "timeout", "crash", "error"}``; the
service applies it on the event-loop thread (crash outcomes feed the
retry path).  Nothing here touches asyncio — these functions run inside the
service's single worker thread.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.core.hooi import hooi
from repro.engine.backend import crew_pays
from repro.engine.workspace import WorkspacePool
from repro.parallel.process_pool import PersistentWorkerCrew, WorkerCrashError
from repro.resilience.checkpoint import CheckpointState
from repro.resilience.faults import maybe_fail
from repro.serving.jobs import Job, JobCancelledError, JobTimeoutError

__all__ = ["pooled_eligible", "run_direct"]

#: Outcome kinds the service's dispatcher understands ("breaker" is
#: produced service-side when the pool's circuit is open).
OUTCOME_KINDS = ("ok", "cancelled", "timeout", "crash", "error", "breaker")

Outcome = Tuple[Job, str, object]


def pooled_eligible(job: Job) -> bool:
    """Whether a job runs on the service's persistent worker crew.

    A process-execution job does, whatever its plan, when its TTMc work
    reaches the crew's break-even (:func:`~repro.engine.backend.crew_pays`,
    the rule ``decompose()`` applies); a smaller one — fresh or delta —
    runs inline, with the same result.  Judged on the job's *effective*
    options: a job the degradation ladder moved off the process tier runs
    without the crew from then on, whatever its request asked for.
    """
    request = job.request
    return job.effective_options.execution == "process" and crew_pays(
        request.tensor.nnz, request.ranks
    )


def _classify(job: Job, exc: BaseException) -> Outcome:
    if isinstance(exc, JobCancelledError):
        return (job, "cancelled", exc)
    if isinstance(exc, JobTimeoutError):
        return (job, "timeout", exc)
    if isinstance(exc, WorkerCrashError):
        return (job, "crash", exc)
    return (job, "error", exc)


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


def _warm_options(job: Job, opts):
    """Substitute a delta job's warm-start factors as the initializer.

    A checkpoint resume outranks the warm seed — the checkpoint holds this
    very job's partial sweeps, strictly newer than the base result's
    factors — so the substitution only applies on a fresh first attempt.
    """
    if job.warm_factors is not None and _job_resume(job) is None:
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
        result = hooi(
            request.tensor,
            list(request.ranks),
            _warm_options(job, job.effective_options),
            callback=job.progress_callback,
            workspace=workspace,
            cancel_check=job.make_cancel_check(),
            checkpoint=job.checkpointer,
            resume=_job_resume(job),
            crew=crew,
        )
    except BaseException as exc:
        return _classify(job, exc)
    return (job, "ok", result)
