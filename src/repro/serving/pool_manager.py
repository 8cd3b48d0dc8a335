"""Lifecycle management of the service's persistent worker crew.

The service amortizes worker-process startup across requests by running
every pooled job on one :class:`~repro.parallel.process_pool.
PersistentWorkerCrew`.  This module owns that crew's lifecycle: lazy
construction on first use, health-checked handout (:meth:`HOOIPoolManager.
acquire` silently replaces a crew whose worker died or whose detach timed
out), the explicit :meth:`~HOOIPoolManager.reset` the crash-retry path
calls, and final teardown.  Cumulative counters (``resets``,
``generations``) survive crew replacement so the metrics snapshot reflects
the service's whole lifetime, not the current crew's.

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

import threading
from typing import Optional

from repro.kernels.registry import kernel_available, warmup_kernels
from repro.parallel import blas
from repro.parallel.process_pool import PersistentWorkerCrew
from repro.parallel.shm import cleanup_orphans as _cleanup_shm_orphans
from repro.resilience.degrade import CircuitBreaker

__all__ = ["HOOIPoolManager"]


class HOOIPoolManager:
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
        self.num_workers = int(num_workers)
        self.breaker = breaker
        self.resets = 0
        self._generations_retired = 0
        self._crew: Optional[PersistentWorkerCrew] = None
        self._closed = False
        self._lock = threading.Lock()
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
            if self._crew is not None and not self._crew.alive:
                self._retire_locked()
            if self._crew is None:
                # Look the BLAS thread setters up here, so forked workers
                # inherit them for their first whole job.
                blas.can_set_threads()
                self._crew = PersistentWorkerCrew(self.num_workers)
            return self._crew

    def live_crew(self) -> Optional[PersistentWorkerCrew]:
        """The current crew when it can take whole jobs, else ``None``.

        Never builds a crew.  ``None`` when there is none yet, when it is
        closed or broken (a worker died), when the circuit breaker is not
        closed, or when this process found no OpenBLAS thread setter: a
        whole job beside its siblings must run on one BLAS thread.
        """
        if self.breaker is not None and self.breaker.state != "closed":
            return None
        with self._lock:
            crew = self._crew
            if self._closed or crew is None or not crew.alive:
                return None
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

    def _retire_locked(self) -> None:
        crew, self._crew = self._crew, None
        if crew is not None:
            self._generations_retired += crew.generations
            crew.close()

    def reset(self) -> None:
        """Tear down the current crew so the next acquire builds a fresh one.

        The crash-retry path: after a :class:`~repro.parallel.process_pool.
        WorkerCrashError` the old crew's surviving processes may hold
        attachments to an arena that is being unlinked, so the whole crew is
        reaped (releasing every shared-memory mapping) before the retried
        job runs on new workers.
        """
        with self._lock:
            self._retire_locked()
            self.resets += 1

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

    @property
    def generations(self) -> int:
        """Pool generations served across every crew this manager owned."""
        with self._lock:
            live = self._crew.generations if self._crew is not None else 0
            return self._generations_retired + live

    def close(self) -> None:
        """Reap the crew; the manager refuses further acquires (idempotent)."""
        with self._lock:
            self._closed = True
            self._retire_locked()

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
