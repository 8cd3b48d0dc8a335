"""Decomposition-as-a-service: the async job engine over the persistent pool.

:class:`DecompositionService` turns the library's one-shot drivers into a
long-lived endpoint: callers ``await service.submit(tensor, ranks, ...)``
and get a :class:`~repro.serving.jobs.JobHandle` whose result they await
whenever convenient.  Inside, the service is a small, single-consumer
pipeline:

* **Admission** — ``submit`` normalizes the request
  (:meth:`JobRequest.build` validates ranks and options exactly like the
  drivers would), consults the LRU result cache (an identical resubmission
  is served instantly, born ``DONE`` with ``cached=True``), and enforces
  the pending-queue bound (:class:`~repro.serving.jobs.AdmissionError`).

* **Dispatch** — one asyncio task drains the FIFO queue in two lanes,
  and every job is one ordinary ``hooi()`` call
  (:mod:`repro.serving.executor`).  The job at the head of the queue
  decides.  A process job *below* the crew's break-even
  (:func:`~repro.serving.executor.worker_eligible`) waits for an idle
  worker of the live crew and runs there whole
  (:func:`~repro.serving.executor.run_on_worker`), so up to
  ``num_workers`` such jobs run at once.  Any other job waits until no
  worker job is in flight and then runs alone
  (:func:`~repro.serving.executor.run_direct`): a process job whose
  per-sweep TTMc work reaches the break-even
  (:func:`~repro.serving.executor.pooled_eligible`, the rule
  ``decompose()`` applies) borrows the crew for one pool generation, so
  it pays one worker attach/detach and zero process spawns; sequential
  and thread jobs run without it.  A small job never spawns a crew: with
  none live (not yet built, broken, or the breaker not closed) it runs
  alone, inline.  Jobs run on a ``1 + num_workers``-thread executor, so
  the event loop stays responsive while decompositions grind.

* **Outcomes** — applied back on the loop thread: results land in the
  cache and resolve futures; cancellations and timeouts raise their typed
  errors; a worker crash retires the crew
  (:meth:`~repro.serving.pool_manager.HOOIPoolManager.reset`) once no
  other job is in flight — a service started with ``warmup=True`` builds
  the next one right away — and requeues the job up to ``max_retries``
  times.

* **Metrics** — :meth:`DecompositionService.metrics` snapshots queue depth,
  per-state counts, cache accounting, pool generations/resets, throughput
  and p50/p95 end-to-end latency.

The service assumes a single asyncio loop (``start`` captures it); handles
may be cancelled from any thread, but ``submit``/``result`` belong to the
loop.  See README "Serving decompositions" for the end-to-end example.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import itertools
import time
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.core.hooi import HOOIOptions
from repro.engine.workspace import WorkspacePool
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.degrade import (
    CircuitBreaker,
    CircuitOpenError,
    DegradationLadder,
)
from repro.serving.cache import ResultCache
from repro.serving.executor import (
    Outcome,
    pooled_eligible,
    run_direct,
    run_on_worker,
    worker_eligible,
)
from repro.serving.jobs import (
    AdmissionError,
    Job,
    JobCancelledError,
    JobHandle,
    JobState,
)
from repro.serving.pool_manager import HOOIPoolManager

__all__ = ["DecompositionService"]

_UNSET = object()


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


class DecompositionService:
    """An async decomposition endpoint over one persistent worker crew.

    Use as an async context manager::

        async with DecompositionService(num_workers=2) as service:
            handle = await service.submit(tensor, 4, execution="process")
            result = await handle.result()

    Parameters
    ----------
    num_workers:
        Worker-process count of the persistent crew: the width of a pooled
        job's generation, and how many small process jobs run at once.
    max_pending:
        Admission bound on queued jobs; beyond it ``submit`` raises
        :class:`AdmissionError` (cache hits are exempt — they never queue).
    cache_capacity:
        LRU result-cache entries (0 disables caching).
    default_timeout:
        Per-job timeout in seconds applied when ``submit`` passes none
        (None = unlimited).  Timeouts abort cooperatively at the next mode
        boundary and surface as :class:`JobTimeoutError`.
    max_retries:
        How many times a job is requeued after a worker crash before the
        fallback ladder (or, under ``fallback="none"``, the
        :class:`~repro.parallel.process_pool.WorkerCrashError`) takes over.
        A crashed job is requeued at once, with no backoff: no job runs on
        the crashed crew again, and the service retires it once no other
        job is in flight.
    warmup:
        Spawn the crew and pre-compile available kernel tiers at
        :meth:`start` instead of on the first request, and spawn a fresh
        crew right after a worker crash retires one (unless the circuit
        breaker is open), so small jobs keep running on workers.
    checkpoint_dir / checkpoint_interval:
        When set, every running job checkpoints its HOOI state at sweep
        boundaries into per-job files under ``checkpoint_dir`` (named by
        the job's cache-key fingerprints), and the crash-retry path resumes
        from the last good sweep instead of recomputing from sweep 0.  The
        file is removed when its job completes.
    breaker_threshold / breaker_cooldown:
        The process-pool circuit breaker: ``breaker_threshold`` consecutive
        pooled-job failures open the circuit for ``breaker_cooldown``
        seconds, during which pooled jobs degrade immediately (no retries
        against a broken tier) and a half-open probe re-tests the pool.
        ``breaker_threshold=0`` disables the breaker.
    cleanup_orphans:
        Run an age-gated sweep of stale repro-owned ``/dev/shm`` segments
        (left by previously SIGKILL'd owners) at construction.
    """

    def __init__(
        self,
        *,
        num_workers: int = 1,
        max_pending: int = 64,
        cache_capacity: int = 64,
        default_timeout: Optional[float] = None,
        max_retries: int = 1,
        warmup: bool = True,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_interval: int = 1,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        cleanup_orphans: bool = False,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        if breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {breaker_threshold}"
            )
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        self.max_retries = int(max_retries)
        self._warmup = warmup
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_interval = int(checkpoint_interval)
        breaker = (
            CircuitBreaker(
                failure_threshold=breaker_threshold, cooldown=breaker_cooldown
            )
            if breaker_threshold > 0
            else None
        )
        self._pool = HOOIPoolManager(
            num_workers, breaker=breaker, cleanup_orphans=cleanup_orphans
        )
        self._ladder = DegradationLadder()
        self._cache = ResultCache(cache_capacity)
        self._queue: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._workspace = WorkspacePool()
        self._started = False
        self._closing = False
        # In flight: worker id -> the job running whole on that worker, or
        # the one job running alone.  Never both at once.
        self._lane: Dict[int, Job] = {}
        self._alone: Optional[Job] = None
        self._reset_pending = False
        self._tasks: set = set()
        self._counts = {state: 0 for state in JobState}
        self._submitted = 0
        self._retries = 0
        self._resumed_sweeps = 0
        self._warm_started = 0
        self._fallbacks: Dict[str, int] = {}
        self._latencies: List[float] = []
        self._started_at: Optional[float] = None

    # -- lifecycle -------------------------------------------------------- #
    async def start(self) -> "DecompositionService":
        """Capture the loop, start the executor threads and the dispatcher."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        # One thread per crew worker (each blocks on its worker's result
        # queue) plus one for a job running alone.
        self._executor = ThreadPoolExecutor(
            max_workers=1 + self._pool.num_workers,
            thread_name_prefix="repro-serving",
        )
        if self._warmup:
            await self._loop.run_in_executor(self._executor, self._pool.warmup)
        self._dispatcher = self._loop.create_task(
            self._dispatch_loop(), name="repro-serving-dispatcher"
        )
        self._started = True
        self._started_at = time.monotonic()
        return self

    async def aclose(self, *, drain: bool = True) -> None:
        """Stop the service; ``drain=True`` finishes queued work first.

        With ``drain=False`` every still-queued job is finalized as
        cancelled (in-flight jobs always complete — cancellation is
        cooperative).  Either way the executor threads are joined and the
        crew reaped, so no worker process or shared-memory segment outlives
        the service.
        """
        if not self._started:
            self._pool.close()
            return
        if not drain:
            for job in self._queue:
                job.request_cancel()
        self._closing = True
        self._wakeup.set()
        await self._dispatcher
        self._executor.shutdown(wait=True)
        self._pool.close()

    async def __aenter__(self) -> "DecompositionService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- submission ------------------------------------------------------- #
    async def submit(
        self,
        tensor,
        ranks,
        *,
        options: Optional[Union[HOOIOptions, dict]] = None,
        timeout=_UNSET,
        **option_kwargs,
    ) -> JobHandle:
        """Admit a decomposition request and return its handle.

        ``options`` / ``option_kwargs`` follow :func:`repro.decompose`:
        any :class:`HOOIOptions` field, e.g. ``execution="process"``,
        ``trsvd_method="gram"``.  Invalid requests are rejected here with
        the drivers' own error messages; a full queue raises
        :class:`AdmissionError`.  An identical previously-computed request
        (same tensor content, same normalized options) resolves immediately
        from the cache without queueing or recomputation.
        """
        if not self._started or self._closing:
            raise AdmissionError(
                "the service is not accepting submissions "
                "(not started or closing)"
            )
        from repro.serving.jobs import JobRequest

        request = JobRequest.build(tensor, ranks, options, **option_kwargs)
        return self._admit(request, timeout=timeout)

    async def submit_delta(
        self,
        base: Union[JobHandle, str],
        batch,
        *,
        ranks=None,
        options: Optional[Union[HOOIOptions, dict]] = None,
        timeout=_UNSET,
        **option_kwargs,
    ) -> JobHandle:
        """Admit a decomposition of a previous job's tensor plus a delta.

        ``base`` is the :class:`JobHandle` (or job id) of an earlier
        submission; ``batch`` anything
        :meth:`repro.streaming.DeltaBatch.coerce` accepts.  The delta is
        applied eagerly (:func:`repro.streaming.apply_delta`) and the
        result admitted like any job, with two streaming twists.  The cache
        identity is derived, not re-hashed: the tensor fingerprint is a
        digest of ``(base fingerprint, batch fingerprint)``, so resubmitting
        the same delta on the same base hits the cache without touching the
        merged nonzeros.  And when the base job's result is available (its
        future, or the result cache), its factor matrices — conformed to the
        grown shape and the requested ranks — seed the new run as a warm
        start, counted in ``metrics()['jobs']['warm_started']``.

        ``ranks`` / ``options`` default to the base request's; overrides
        follow :meth:`submit`.
        """
        if not self._started or self._closing:
            raise AdmissionError(
                "the service is not accepting submissions "
                "(not started or closing)"
            )
        from repro.serving.jobs import JobRequest
        from repro.streaming.delta import DeltaBatch, apply_delta
        from repro.streaming.warmstart import conform_factors

        base_handle = self.get_job(base) if isinstance(base, str) else base
        if base_handle is None:
            raise ValueError(
                f"unknown base job {base!r}: submit_delta needs the handle "
                "(or id) of a job this service admitted"
            )
        base_request = base_handle.request
        batch = DeltaBatch.coerce(batch)
        tensor = apply_delta(base_request.tensor, batch)
        digest = hashlib.sha256(
            "repro-delta/1|{}|{}".format(
                base_request.tensor_fingerprint, batch.fingerprint()
            ).encode("ascii")
        ).hexdigest()
        request = JobRequest.build(
            tensor,
            base_request.ranks if ranks is None else ranks,
            base_request.options if options is None else options,
            tensor_fingerprint=digest,
            **option_kwargs,
        )

        warm_factors = None
        base_result = self._finished_result(base_handle)
        if base_result is not None:
            warm_factors = conform_factors(
                base_result.decomposition.factors, tensor.shape, request.ranks
            )
        return self._admit(request, timeout=timeout, warm_factors=warm_factors)

    def _finished_result(self, handle: JobHandle):
        """A base job's completed result, from its future or the cache."""
        future = handle._job.future
        if future.done() and not future.cancelled():
            if future.exception() is None:
                return future.result()
            return None
        return self._cache.get(handle.request.cache_key)

    def _admit(
        self, request, *, timeout=_UNSET, warm_factors=None
    ) -> JobHandle:
        """Register, cache-check and enqueue a built request."""
        job_timeout = self.default_timeout if timeout is _UNSET else timeout
        job_id = f"job-{next(self._ids)}"
        future = self._loop.create_future()
        job = Job(
            job_id, request, future,
            timeout=job_timeout, on_cancel=self._kick,
        )
        self._jobs[job_id] = job
        self._submitted += 1

        cached = self._cache.get(request.cache_key)
        if cached is not None:
            job.cached = True
            job.state = JobState.DONE
            job.finished_at = job.submitted_at
            self._counts[JobState.DONE] += 1
            future.set_result(cached)
            return JobHandle(job)

        if len(self._queue) >= self.max_pending:
            del self._jobs[job_id]
            future.cancel()
            raise AdmissionError(
                f"the service's pending queue is full "
                f"({self.max_pending} jobs); retry after some drain"
            )
        if warm_factors is not None:
            job.warm_factors = list(warm_factors)
            self._warm_started += 1
        if self.checkpoint_dir is not None:
            # One rolling checkpoint file per logical request, keyed by the
            # cache-key fingerprints: a crash-retried attempt of the same
            # submission finds its own sweeps and nothing else's.
            job.checkpointer = Checkpointer(
                self.checkpoint_dir,
                interval=self.checkpoint_interval,
                filename=(
                    f"{request.tensor_fingerprint[:16]}-"
                    f"{request.request_fingerprint[:16]}.ckpt.npz"
                ),
            )
        self._queue.append(job)
        self._wakeup.set()
        return JobHandle(job)

    def get_job(self, job_id: str) -> Optional[JobHandle]:
        """The handle for a previously submitted job id, if still known."""
        job = self._jobs.get(job_id)
        return JobHandle(job) if job is not None else None

    # -- dispatch --------------------------------------------------------- #
    def _kick(self) -> None:
        """Thread-safe dispatcher nudge (used by handle.cancel)."""
        try:
            self._loop.call_soon_threadsafe(self._wakeup.set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    async def _dispatch_loop(self) -> None:
        while True:
            self._wakeup.clear()
            self._drop_cancelled()
            self._start_ready()
            if self._closing and not self._queue and not self._running():
                return
            await self._wakeup.wait()

    def _running(self) -> int:
        return len(self._lane) + (self._alone is not None)

    def _drop_cancelled(self) -> None:
        """Finalize queued jobs whose cancellation was requested, unrun."""
        for job in [job for job in self._queue if job.cancel_requested]:
            self._queue.remove(job)
            self._finalize(
                job, "cancelled",
                JobCancelledError(f"job {job.id} was cancelled while queued"),
            )

    def _start_ready(self) -> None:
        """Start queued jobs in FIFO order while the lane rule allows.

        The head decides: a small process job takes an idle worker of the
        live crew; any other job (or a small one with no live crew) starts
        once nothing is in flight and then runs alone.
        """
        while self._queue and self._alone is None:
            job = self._queue[0]
            crew = self._pool.live_crew() if worker_eligible(job) else None
            if crew is not None:
                idle = next(
                    (w for w in range(crew.num_workers) if w not in self._lane),
                    None,
                )
                if idle is None:
                    return
                self._lane[idle] = self._queue.popleft()
                self._launch(job, crew, idle)
            elif self._lane:
                return
            else:
                self._alone = self._queue.popleft()
                self._launch(self._alone, None, None)

    def _launch(self, job: Job, crew, worker: Optional[int]) -> None:
        job.state = JobState.RUNNING
        job.started_at = time.monotonic()
        job.attempts += 1
        job.worker = worker
        task = self._loop.create_task(self._execute(job, crew, worker))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _execute(self, job: Job, crew, worker: Optional[int]) -> None:
        """Run one job on an executor thread and apply its outcome."""
        try:
            if crew is None:
                outcome = await self._loop.run_in_executor(
                    self._executor, self._run, job
                )
            else:
                outcome = await self._loop.run_in_executor(
                    self._executor, self._run_on_worker, job, crew, worker
                )
            if outcome[1] == "crash":
                self._reset_pending = True
            if self._reset_pending and self._running() == 1:
                # Retire the crew whether or not the job runs again: its
                # workers may still map an arena that is gone.  Waiting
                # until this is the last job in flight lets a job on another
                # worker finish first.  reset() joins processes, so it runs
                # on an executor thread; a warmed-up service builds the
                # next crew there too, so small jobs keep the worker lane.
                await self._loop.run_in_executor(
                    self._executor,
                    functools.partial(self._pool.reset, rebuild=self._warmup),
                )
                self._reset_pending = False
            self._apply_outcome(outcome)
        except Exception as exc:
            # A fault in the outcome plumbing fails the job loudly instead
            # of leaving its caller waiting.
            if job.future.done():
                raise
            self._finalize(job, "error", exc)
        finally:
            if worker is None:
                self._alone = None
            else:
                del self._lane[worker]
            self._wakeup.set()

    def _run(self, job: Job) -> Outcome:
        """Executor entry of a job running alone: on the crew when pooled.

        Every such job shares one workspace pool: jobs running alone never
        overlap, so same-shape requests stop allocating after the first.  A
        pooled job borrows a healthy crew; an open circuit breaker
        surfaces as a ``"breaker"`` outcome — the dispatcher degrades the
        job down the ladder without burning retries against a tier that is
        known broken.  Pooled outcomes feed the breaker: a crash counts as
        a pool failure, anything else as a success.
        """
        if not pooled_eligible(job):
            return run_direct(job, workspace=self._workspace)
        try:
            crew = self._pool.acquire()
        except CircuitOpenError as exc:
            return (job, "breaker", exc)
        return self._record(run_direct(job, workspace=self._workspace, crew=crew))

    def _run_on_worker(self, job: Job, crew, worker: int) -> Outcome:
        """Executor entry of a worker-lane job; its outcome feeds the breaker."""
        return self._record(run_on_worker(job, crew, worker))

    def _record(self, outcome: Outcome) -> Outcome:
        if outcome[1] == "crash":
            self._pool.record_failure()
        else:
            self._pool.record_success()
        return outcome

    # -- outcome application (loop thread) -------------------------------- #
    def _apply_outcome(self, outcome: Outcome) -> None:
        job, kind, payload = outcome
        if kind in ("crash", "breaker") and not job.cancel_requested:
            if kind == "crash" and job.attempts <= self.max_retries:
                self._retries += 1
                self._requeue(job)
                return
            # Retries are exhausted, or the pool is known broken (the
            # breaker): step the job down the ladder now, if it can.
            if self._degrade(job, payload):
                self._requeue(job)
                return
        self._finalize(job, kind, payload)

    def _requeue(self, job: Job) -> None:
        """Put a job back at the head of the queue for its next attempt."""
        job.state = JobState.QUEUED
        self._queue.appendleft(job)
        self._wakeup.set()

    def _degrade(self, job: Job, cause: BaseException) -> bool:
        """Move a job one ladder rung down; False when it must fail instead.

        Consulted when the pool tier failed it *terminally* — retries
        exhausted or circuit open.  Honors the request's ``fallback``
        policy; the descent is recorded on the job (``fallback_steps``, so
        ``effective_options`` and the dispatcher's routing change) and in
        the per-tier ``fallbacks`` metrics, and announced as a warning —
        silent substitution of a slower tier would make "the service got
        slow" undebuggable.
        """
        if (job.request.options.fallback or "ladder") != "ladder":
            return False
        opts = job.effective_options
        step = self._ladder.next_step(
            execution=opts.execution or "sequential",
            kernel=opts.kernel or "numpy",
            tensor_format=opts.tensor_format or "coo",
        )
        if step is None:
            return False
        job.fallback_steps.append(step)
        self._fallbacks[step.tier] = self._fallbacks.get(step.tier, 0) + 1
        warnings.warn(
            f"job {job.id}: {type(cause).__name__} on the "
            f"{step.from_value!r} tier after {job.attempts} attempt(s); "
            f"degrading {step.describe()} (same numerics, lower "
            "parallelism — see README 'Fault tolerance & graceful "
            "degradation')",
            RuntimeWarning,
            stacklevel=2,
        )
        return True

    def _finalize(self, job: Job, kind: str, payload) -> None:
        job.finished_at = time.monotonic()
        future = job.future
        if kind == "ok":
            job.state = JobState.DONE
            resumed = int(getattr(payload, "resumed_sweeps", 0))
            if resumed:
                job.resumed_sweeps = resumed
                self._resumed_sweeps += resumed
            if job.checkpointer is not None:
                # The rolling checkpoint served its purpose; a stale file
                # must not shadow a future identical submission.
                job.checkpointer.discard()
            self._cache.put(job.request.cache_key, payload)
            self._latencies.append(job.finished_at - job.submitted_at)
            if not future.done():
                future.set_result(payload)
        elif kind == "cancelled":
            job.state = JobState.CANCELLED
            if not future.done():
                future.set_exception(payload)
        else:  # timeout, crash (retries exhausted), error
            job.state = JobState.FAILED
            if not future.done():
                future.set_exception(payload)
        self._counts[job.state] += 1

    # -- observability ---------------------------------------------------- #
    def metrics(self) -> dict:
        """A point-in-time snapshot of the service's counters.

        ``jobs``: submitted / per-terminal-state counts / retries /
        checkpoint-resumed sweeps, plus the live queue depth and the
        in-flight job count (``running``: 0 or 1 while a job runs alone, up
        to ``num_workers`` while small jobs run on the crew's workers).
        ``cache``: the :meth:`ResultCache.snapshot` accounting.  ``pool``: crew size,
        generations served (across crew rebuilds), crash resets and the
        circuit breaker's state.
        ``fallbacks``: per-destination-tier degradation counts (e.g.
        ``{"thread": 1}`` after one process→thread descent; empty while
        nothing degraded).  ``latency_seconds``: end-to-end (submit → done)
        p50/p95/mean over completed jobs.  ``jobs_per_second``: completed
        jobs over the service's uptime.
        """
        done = self._counts[JobState.DONE]
        latencies = sorted(self._latencies)
        elapsed = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return {
            "jobs": {
                "submitted": self._submitted,
                "queued": len(self._queue),
                "running": self._running(),
                "done": done,
                "failed": self._counts[JobState.FAILED],
                "cancelled": self._counts[JobState.CANCELLED],
                "retries": self._retries,
                "resumed_sweeps": self._resumed_sweeps,
                "warm_started": self._warm_started,
            },
            "cache": self._cache.snapshot(),
            "pool": {
                "workers": self._pool.num_workers,
                "generations": self._pool.generations,
                "resets": self._pool.resets,
                "breaker_state": self._pool.breaker_state,
            },
            "fallbacks": dict(self._fallbacks),
            "latency_seconds": {
                "count": len(latencies),
                "p50": _percentile(latencies, 0.50),
                "p95": _percentile(latencies, 0.95),
                "mean": (
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
            },
            "jobs_per_second": (done / elapsed) if elapsed > 0 else 0.0,
        }
