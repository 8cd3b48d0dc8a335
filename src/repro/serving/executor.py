"""How the service actually runs jobs: direct engine runs and pooled batches.

Two execution paths, chosen per job by the dispatcher:

* :func:`run_direct` — one ordinary :func:`repro.core.hooi.hooi` call on the
  service's worker thread, for every job that is not :func:`pooled_eligible`:
  sequential and thread jobs, and process jobs below the crew's break-even
  (which the engine then runs inline).

* :func:`run_process_batch` — the persistent-crew path for process jobs
  whose TTMc work reaches the break-even.
  Each member's work plan (COO rows, CSF root-fiber slabs or a dimension
  tree, :mod:`repro.engine.plans`) is built over its dtype-cast tensor and
  all of them are packed into ONE
  :meth:`~repro.parallel.process_pool.HOOIProcessPool.for_plans`
  generation on the manager's crew.  Every member then runs through the
  normal :meth:`~repro.engine.driver.HOOIEngine.run` with a
  :class:`~repro.engine.backend.PlanBackend` attached to that generation:
  the engine applies its own dtype cast, initializer, warm start and
  resume, and the backend's ``prepare`` writes the resulting factors into
  the generation.  A batch costs one worker attach/detach cycle regardless
  of its size and zero process spawns — the attach/detach-thrash avoidance
  that makes a stream of small tensors cheap.

Every job's outcome is reported as a ``(job, kind, payload)`` tuple with
``kind`` in ``{"ok", "cancelled", "timeout", "crash", "error"}``; the
service applies them on the event-loop thread (crash outcomes feed the
retry path).  Nothing here touches asyncio — these functions run inside the
service's single worker thread.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.hooi import hooi
from repro.core.sparse_tensor import SparseTensor, resolve_dtype
from repro.engine.backend import (
    PlanBackend,
    ProcessDispatcher,
    crew_pays,
    resolve_plan,
)
from repro.engine.driver import HOOIEngine
from repro.engine.workspace import WorkspacePool
from repro.parallel.process_pool import (
    HOOIProcessPool,
    PersistentWorkerCrew,
    ProcessConfig,
    WorkerCrashError,
)
from repro.resilience.checkpoint import CheckpointState
from repro.resilience.faults import maybe_fail
from repro.serving.jobs import Job, JobCancelledError, JobTimeoutError

__all__ = [
    "pooled_eligible",
    "run_direct",
    "run_process_batch",
]

#: Outcome kinds the service's dispatcher understands ("breaker" is
#: produced service-side when the pool's circuit is open).
OUTCOME_KINDS = ("ok", "cancelled", "timeout", "crash", "error", "breaker")

Outcome = Tuple[Job, str, object]


def pooled_eligible(job: Job) -> bool:
    """Whether a job runs on the persistent crew's batched generations.

    A process-execution job does, whatever its plan, when its TTMc work
    reaches the crew's break-even (:func:`~repro.engine.backend.crew_pays`,
    the rule ``decompose()`` applies); a smaller one — fresh or delta —
    runs inline through :func:`run_direct`, with the same result.  Judged
    on the job's *effective* options: a job the degradation ladder moved
    off the process tier routes through :func:`run_direct` from then on,
    whatever its request asked for.
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


def run_direct(job: Job, *, workspace: Optional[WorkspacePool] = None) -> Outcome:
    """Run one job through the ordinary driver on the calling thread."""
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
        )
    except BaseException as exc:
        return _classify(job, exc)
    return (job, "ok", result)


def run_process_batch(
    crew: PersistentWorkerCrew, jobs: Sequence[Job]
) -> List[Outcome]:
    """Run a batch of pooled jobs on one crew generation.

    Members run one at a time (the pool is single-consumer) but share a
    single arena build + worker attach/detach cycle.  A worker crash fails
    the in-flight member with a ``"crash"`` outcome and — because the pool
    is broken from that point — every remaining member reports ``"crash"``
    too, so the service's retry path requeues the whole tail onto a fresh
    crew.  A member's cancellation or timeout aborts only that member; the
    generation stays consistent because the engine's ``cancel_check`` fires
    strictly between dispatches.
    """
    plans = {}
    try:
        maybe_fail("serving.run_batch")
        for job in jobs:
            opts = job.effective_options
            tensor = job.request.tensor
            if isinstance(tensor, SparseTensor):
                tensor = tensor.astype(resolve_dtype(opts.dtype))
            plans[job.id] = resolve_plan(opts).build(
                tensor, job.request.ranks, opts
            )
        pool = HOOIProcessPool.for_plans(
            plans, config=ProcessConfig(num_workers=crew.num_workers), crew=crew
        )
    except BaseException as exc:
        # Admission already validated the requests, so a preparation failure
        # is unexpected — fail the whole batch with the real error.
        return [_classify(job, exc) for job in jobs]

    outcomes: List[Outcome] = []
    try:
        for job in jobs:
            try:
                backend = PlanBackend(
                    plans[job.id], ProcessDispatcher(pool=pool, job=job.id)
                )
                engine = HOOIEngine(
                    job.request.tensor,
                    list(job.request.ranks),
                    _warm_options(job, job.effective_options),
                    backend=backend,
                )
                result = engine.run(
                    callback=job.progress_callback,
                    cancel_check=job.make_cancel_check(),
                    checkpoint=job.checkpointer,
                    resume=_job_resume(job),
                )
            except BaseException as exc:
                outcomes.append(_classify(job, exc))
            else:
                outcomes.append((job, "ok", result))
    finally:
        try:
            pool.close()
        except Exception:
            # A failed detach already marked the crew broken; the arena was
            # still unlinked, which is all teardown must guarantee here.
            pass
    return outcomes
