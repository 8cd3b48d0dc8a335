"""Job objects of the decomposition service: requests, states, handles.

A submission travels the service as three cooperating objects.
:class:`JobRequest` is the *serializable description* — the tensor plus the
rank vector and a fully-materialized :class:`~repro.core.hooi.HOOIOptions`,
identified by two sha256 digests: the tensor's content fingerprint
(:meth:`~repro.core.sparse_tensor.SparseTensor.fingerprint`) and a request
fingerprint over ``(ranks, options)`` built from the canonical options codec
(:meth:`~repro.core.hooi.HOOIOptions.to_dict`).  The pair is the result-cache
key, so two submissions that *mean* the same decomposition — whatever keyword
order or defaulted fields they were spelled with — hit the same cache line.

:class:`Job` is the service-internal record (state machine, attempt counter,
progress, the cancellation flag shared with the thread running the job), and
:class:`JobHandle` is the caller-facing view: await :meth:`JobHandle.result`,
poll :attr:`JobHandle.state` / :attr:`JobHandle.progress`, or
:meth:`JobHandle.cancel`.

States move ``QUEUED → RUNNING → DONE | FAILED | CANCELLED`` (cache hits are
born ``DONE`` with :attr:`JobHandle.cached` set; crash-retried jobs move
``RUNNING → QUEUED`` again).  See CONTRIBUTING for how to extend the state
set without breaking the metrics accounting.
"""

from __future__ import annotations

import asyncio
import enum
import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.core.hooi import HOOIOptions
from repro.util.validation import check_rank_feasibility, check_rank_vector

__all__ = [
    "JobState",
    "JobRequest",
    "Job",
    "JobHandle",
    "ServingError",
    "AdmissionError",
    "JobCancelledError",
    "JobTimeoutError",
    "make_cancel_check",
]


class ServingError(RuntimeError):
    """Base class of the decomposition service's errors."""


class AdmissionError(ServingError):
    """The service refused to enqueue a submission (full queue or closed)."""


class JobCancelledError(ServingError):
    """The job was cancelled (before or during its run)."""


class JobTimeoutError(ServingError):
    """The job exceeded its per-job timeout and was aborted mid-run."""


class JobState(str, enum.Enum):
    """Lifecycle states of a service job.

    ``QUEUED`` (admitted, awaiting dispatch) → ``RUNNING`` (on the
    service's executor thread or, whole, on a crew worker) → one of the
    terminal states ``DONE`` / ``FAILED`` / ``CANCELLED``.  A crash-retried
    job transitions ``RUNNING → QUEUED``.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves once entered.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass(frozen=True)
class JobRequest:
    """A serializable decomposition request with content-addressed identity.

    Build one with :meth:`build`; the constructor fields are the normalized
    outcome (ranks broadcast/clipped to the tensor's shape, options fully
    materialized and validated).  ``cache_key`` is what the service's result
    cache is keyed by.
    """

    tensor: object
    ranks: Tuple[int, ...]
    options: HOOIOptions
    tensor_fingerprint: str
    request_fingerprint: str

    @classmethod
    def build(
        cls,
        tensor,
        ranks: Union[int, Sequence[int]],
        options: Optional[Union[HOOIOptions, dict]] = None,
        *,
        tensor_fingerprint: Optional[str] = None,
        **option_kwargs,
    ) -> "JobRequest":
        """Normalize and fingerprint a submission.

        ``options`` may be an :class:`HOOIOptions`, a plain dict (the wire
        form), or ``None``; ``option_kwargs`` override individual fields on
        top.  Unknown option keys and invalid compositions are rejected here
        — at admission time — with the same actionable errors the drivers
        raise, so a bad request never occupies a queue slot.

        ``tensor_fingerprint`` overrides the content hash when the caller
        already knows the tensor's identity cheaper than a full re-hash —
        the delta path keys on ``(base fingerprint, batch fingerprint)``
        instead of re-fingerprinting the merged tensor.
        """
        opts = HOOIOptions.from_dict(HOOIOptions.merge_dict(options, option_kwargs))
        opts.validate()
        rank_vec = check_rank_feasibility(check_rank_vector(ranks, tensor.shape))
        payload = json.dumps(
            {
                "schema": "hooi-request/1",
                "ranks": [int(r) for r in rank_vec],
                "options": opts.to_dict(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return cls(
            tensor=tensor,
            ranks=tuple(int(r) for r in rank_vec),
            options=opts,
            tensor_fingerprint=(
                tensor_fingerprint
                if tensor_fingerprint is not None
                else tensor.fingerprint()
            ),
            request_fingerprint=hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest(),
        )

    @property
    def cache_key(self) -> Tuple[str, str]:
        """The result-cache key: content identity × request identity."""
        return (self.tensor_fingerprint, self.request_fingerprint)

    def to_dict(self) -> dict:
        """The request as a JSON-ready dict (fingerprints, not payloads)."""
        return {
            "tensor_fingerprint": self.tensor_fingerprint,
            "request_fingerprint": self.request_fingerprint,
            "ranks": list(self.ranks),
            "options": self.options.to_dict(),
        }


class Job:
    """The service-internal job record.

    Lives on both sides of the thread boundary: the event loop mutates
    ``state`` / applies outcomes, the executor thread running the job reads
    the cancellation flag (a :class:`threading.Event`; for a job on a crew
    worker, the thread copies it into the worker's shared flag) and writes
    ``progress``.  The only cross-thread signals are the event and the
    plain-tuple progress write, both safe under the GIL.
    """

    def __init__(
        self,
        job_id: str,
        request: JobRequest,
        future: "asyncio.Future",
        *,
        timeout: Optional[float] = None,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.id = job_id
        self.request = request
        self.future = future
        self.timeout = timeout
        self.state = JobState.QUEUED
        self.cached = False
        self.attempts = 0
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.progress: Optional[Tuple[int, float]] = None
        self._cancel_flag = threading.Event()
        self._on_cancel = on_cancel
        # Resilience state (PR 8).  ``checkpointer`` is attached by the
        # service when it runs with a checkpoint directory; retried attempts
        # resume from its rolling file instead of sweep 0.  ``fallback_step``
        # records the ladder rung a degraded job was moved to (None while on
        # its requested tier); ``resumed_sweeps`` accumulates the sweeps
        # recovered from checkpoints across this job's attempts.
        self.checkpointer = None
        self.fallback_steps: list = []
        self.resumed_sweeps = 0
        # Warm-start factors (PR 10): conformed matrices a delta submission
        # seeds its run with instead of the options' initializer.  A
        # checkpoint resume (this job's own prior sweeps) takes precedence.
        self.warm_factors: Optional[list] = None
        # The crew worker the latest attempt ran on whole (None: it ran on
        # the service's executor thread).
        self.worker: Optional[int] = None

    @property
    def effective_options(self) -> HOOIOptions:
        """The options this job actually runs with.

        Identical to the request's options until the degradation ladder
        moves the job to lower tiers (``fallback_steps`` applied in order);
        the *request* options (and therefore the cache key and
        fingerprints) never change — degradation is an execution detail,
        not a different request.
        """
        if not self.fallback_steps:
            return self.request.options
        data = self.request.options.to_dict()
        for step in self.fallback_steps:
            data[step.field] = step.to_value
        return HOOIOptions.from_dict(data)

    # -- cancellation (callable from any thread) -------------------------- #
    def request_cancel(self) -> None:
        """Flag the job for cancellation and nudge the dispatcher."""
        self._cancel_flag.set()
        if self._on_cancel is not None:
            self._on_cancel()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_flag.is_set()

    # -- worker-thread seams ---------------------------------------------- #
    def progress_callback(self, iteration: int, fit: float) -> None:
        """The engine's ``callback(iteration, fit)`` hook."""
        self.progress = (int(iteration), float(fit))

    def make_cancel_check(self) -> Callable[[], None]:
        """The engine's cooperative ``cancel_check`` for one run attempt.

        See :func:`make_cancel_check`; this one reads the job's own flag.
        """
        return make_cancel_check(self.id, self.timeout, self._cancel_flag.is_set)


def make_cancel_check(
    job_id: str, timeout: Optional[float], cancelled: Callable[[], bool]
) -> Callable[[], None]:
    """The engine's cooperative ``cancel_check`` for one run attempt of a job.

    Checked at every mode boundary of every sweep: once ``cancelled()``
    turns true it raises :class:`JobCancelledError`; an expired per-job
    ``timeout`` (measured from this call, the attempt's start) raises
    :class:`JobTimeoutError`.  Raising at the mode boundary — never
    mid-dispatch — is what keeps a pooled run's worker generation
    consistent on abort.  A job that runs whole on a crew worker builds its
    check there, over the worker's shared cancel flag, so both lanes raise
    the same errors with the same messages.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None

    def check() -> None:
        if cancelled():
            raise JobCancelledError(f"job {job_id} was cancelled")
        if deadline is not None and time.monotonic() > deadline:
            raise JobTimeoutError(
                f"job {job_id} exceeded its {timeout:g}s timeout"
            )

    return check


class JobHandle:
    """The caller-facing view of a submitted job."""

    def __init__(self, job: Job) -> None:
        self._job = job

    @property
    def job_id(self) -> str:
        return self._job.id

    @property
    def state(self) -> JobState:
        return self._job.state

    @property
    def cached(self) -> bool:
        """Whether the result was served from the cache (no computation)."""
        return self._job.cached

    @property
    def progress(self) -> Optional[Tuple[int, float]]:
        """Latest ``(iteration, fit)`` reported by the running job."""
        return self._job.progress

    @property
    def request(self) -> JobRequest:
        return self._job.request

    def done(self) -> bool:
        return self._job.future.done()

    def cancel(self) -> bool:
        """Request cancellation; returns False if the job already finished.

        A queued job is finalized as ``CANCELLED`` without running; a
        running job aborts at its next mode boundary (cooperatively — the
        in-flight parallel dispatch always completes first).
        """
        if self._job.state in TERMINAL_STATES:
            return False
        self._job.request_cancel()
        return True

    async def result(self):
        """Await the :class:`~repro.core.hooi.HOOIResult` (or the failure).

        Raises :class:`JobCancelledError` / :class:`JobTimeoutError` /
        whatever the run raised.  Shielded: cancelling the *awaiting task*
        does not cancel the job — use :meth:`cancel` for that.
        """
        return await asyncio.shield(self._job.future)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobHandle({self._job.id}, {self._job.state.value}"
            f"{', cached' if self._job.cached else ''})"
        )
