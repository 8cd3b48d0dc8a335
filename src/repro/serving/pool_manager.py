"""Lifecycle management of the service's persistent worker crew.

The service amortizes worker-process startup across requests by running
every pooled job on one :class:`~repro.parallel.process_pool.
PersistentWorkerCrew`.  This module owns that crew's lifecycle: lazy
construction on first use, health-checked handout (:meth:`HOOIPoolManager.
acquire` silently replaces a crew whose worker died or whose detach timed
out, through :class:`~repro.parallel.process_pool.CrewSlot`), the explicit
:meth:`~HOOIPoolManager.reset` the crash-retry path calls, and final
teardown.  Cumulative counters (``resets``, ``generations``) survive crew
replacement so the metrics snapshot reflects the service's whole
lifetime, not the current crew's.

The manager also hosts the process tier's
:class:`~repro.resilience.degrade.CircuitBreaker`: consecutive pooled-job
failures open the circuit and :meth:`acquire` raises
:class:`~repro.resilience.degrade.CircuitOpenError` for the cooldown, so
the service degrades jobs down the fallback ladder immediately instead of
burning retries against a broken tier.  The worker lane never builds a
crew: :meth:`HOOIPoolManager.live_crew` hands out the current one only
while it is healthy and the circuit is closed.  An opt-in startup sweep
(``cleanup_orphans=True``) reclaims stale ``/dev/shm`` segments a previous
SIGKILL'd owner left behind (:func:`repro.parallel.shm.cleanup_orphans`).
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.registry import kernel_available, warmup_kernels
from repro.parallel import blas
from repro.parallel.process_pool import CrewSlot, PersistentWorkerCrew
from repro.parallel.shm import cleanup_orphans as _cleanup_shm_orphans
from repro.resilience.degrade import CircuitBreaker

__all__ = ["HOOIPoolManager"]


class HOOIPoolManager(CrewSlot):
    """Owns the service's crew; hands out a healthy one, rebuilds dead ones.

    Thread-safe: :meth:`acquire` / :meth:`reset` are called from the
    service's executor threads while :meth:`live_crew`, :meth:`close` and
    the metrics reads happen on the event-loop thread.

    ``breaker`` guards the whole process tier (pass ``None`` to disable —
    acquire then never raises :class:`CircuitOpenError`); callers report
    the outcomes of crew jobs (pooled and worker-lane) through
    :meth:`record_success` / :meth:`record_failure`.
    ``cleanup_orphans=True`` runs an age-gated sweep of stale repro-owned
    shared-memory segments once, before the first crew is built.
    """

    def __init__(
        self,
        num_workers: int = 1,
        *,
        breaker: Optional[CircuitBreaker] = None,
        cleanup_orphans: bool = False,
        orphan_max_age: float = 3600.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__()
        self.num_workers = int(num_workers)
        self.breaker = breaker
        self.resets = 0
        self._closed = False
        self.orphans_removed: tuple = ()
        if cleanup_orphans:
            self.orphans_removed = tuple(
                _cleanup_shm_orphans(max_age_seconds=orphan_max_age)
            )

    def acquire(self) -> PersistentWorkerCrew:
        """A healthy crew, building or transparently replacing as needed.

        Raises :class:`CircuitOpenError` while the breaker is open — the
        caller should degrade the work rather than wait.
        """
        if self.breaker is not None:
            self.breaker.before_call()
        with self._lock:
            if self._closed:
                raise RuntimeError("the pool manager is closed")
            return self._crew_for(self.num_workers)

    def live_crew(self) -> Optional[PersistentWorkerCrew]:
        """The current crew when it can take whole jobs, else ``None``.

        Never builds a crew.  ``None`` when there is none yet, when it is
        closed or broken (a worker died), when the circuit breaker is not
        closed, or when this process found no OpenBLAS thread setter: a
        whole job beside its siblings must run on one BLAS thread.
        """
        if self.breaker is not None and self.breaker.state != "closed":
            return None
        crew = None if self._closed else self.current()
        return crew if blas.can_set_threads() else None

    # -- breaker bookkeeping (no-ops without a breaker) ------------------- #
    def record_success(self) -> None:
        """Report a completed crew job (closes a half-open circuit)."""
        if self.breaker is not None:
            self.breaker.record_success()

    def record_failure(self) -> None:
        """Report a crashed crew job (may trip the circuit)."""
        if self.breaker is not None:
            self.breaker.record_failure()

    @property
    def breaker_state(self) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"``, or ``"disabled"``."""
        return self.breaker.state if self.breaker is not None else "disabled"

    def reset(self, *, rebuild: bool = False) -> None:
        """Tear down the current crew so the next acquire builds a fresh one.

        The crash-retry path: after a :class:`~repro.parallel.process_pool.
        WorkerCrashError` the old crew's surviving processes may hold
        attachments to an arena that is being unlinked, so the whole crew is
        reaped (releasing every shared-memory mapping) before the retried
        job runs on new workers.  ``rebuild=True`` builds those workers at
        once, so small jobs keep their worker lane, unless the circuit
        breaker is open or half-open (its probe must be a real job).
        """
        with self._lock:
            self._retire()
            self.resets += 1
            if rebuild and not self._closed and self.breaker_state in (
                "closed", "disabled"
            ):
                self._crew_for(self.num_workers)

    def warmup(self, kernel: str = "numba") -> None:
        """Front-load the latency the first request would otherwise pay.

        Spawns the crew processes now and, when the compiled tier is
        importable, runs :func:`~repro.kernels.registry.warmup_kernels` so
        JIT compilation happens before any job is admitted.  A no-op for
        tiers that need no warmup.
        """
        self.acquire()
        if kernel != "numpy" and kernel_available(kernel):
            warmup_kernels(kernel)

    def close(self) -> None:
        """Reap the crew; the manager refuses further acquires (idempotent)."""
        with self._lock:
            self._closed = True
            self._retire()

    def __enter__(self) -> "HOOIPoolManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "idle" if self._crew is None else repr(self._crew)
        )
        return (
            f"HOOIPoolManager(workers={self.num_workers}, "
            f"resets={self.resets}, {state})"
        )
