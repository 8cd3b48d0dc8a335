"""Graceful degradation: the fallback ladder and the pool circuit breaker.

A persistently broken execution tier — a poisoned worker crew, an
shm-starved host, a fleet node without numba — should cost a job *speed*,
not *success*.  This module defines the policy half of that story:

* :class:`DegradationLadder` — the ordered, deterministic sequence of
  configuration rungs a job steps down when its current tier keeps
  failing: ``process → thread → sequential`` execution first (the crash
  domain), then ``numba → numpy`` kernel, then ``csf → coo`` format.
  Since csf composes with process execution, the execution axis descends
  fully before the format axis is touched — a CSF job no longer has to
  give up its compressed layout just to leave a broken process pool, and
  every intermediate rung of the descent (e.g. ``thread × numba × csf``,
  ``sequential × numpy × csf``) is itself a valid configuration.  Every
  rung is a tier the conformance matrix proves numerically
  interchangeable (1e-10 parity), which is what makes silent substitution
  *sound* — only wall-clock changes.
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine guarding the process pool: after ``failure_threshold``
  consecutive failures the breaker opens and :class:`CircuitOpenError`
  short-circuits acquisition for ``cooldown`` seconds (jobs degrade
  immediately instead of burning retries against a broken pool); after
  the cooldown one probe is admitted (half-open) and its outcome closes
  or re-opens the circuit.

The mechanism half — who consults these — lives in
:mod:`repro.serving.pool_manager` (breaker around ``acquire()``) and
:mod:`repro.serving.service` (ladder application on retry exhaustion,
per-tier ``fallbacks`` metrics).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.hooi import FALLBACK_POLICIES

__all__ = [
    "FallbackStep",
    "DegradationLadder",
    "CircuitBreaker",
    "CircuitOpenError",
    "FALLBACK_POLICIES",
]

#: Rung order: the axes in descent order, each mapping a value to the next
#: one down.
_LADDER_AXES = (
    ("execution", {"process": "thread", "thread": "sequential"}),
    ("kernel", {"numba": "numpy"}),
    ("tensor_format", {"csf": "coo"}),
)


@dataclass(frozen=True)
class FallbackStep:
    """One rung descent: which option field changes, from what, to what.

    ``tier`` is the destination value — the key under which the serving
    metrics count this fallback (``fallbacks["thread"]`` etc.).
    """

    field: str
    from_value: str
    to_value: str

    @property
    def tier(self) -> str:
        return self.to_value

    def describe(self) -> str:
        return f"{self.field}: {self.from_value} -> {self.to_value}"


class DegradationLadder:
    """The ordered fallback policy consulted when a tier keeps failing.

    Execution degrades first — crashes live in the process tier, and
    ``thread``/``sequential`` share the driver's address space so a broken
    pool cannot hurt them.  The kernel rung handles a missing/broken numba
    install; the format rung handles CSF build failures.  Axes degrade
    independently and one rung at a time: each call to :meth:`next_step`
    proposes exactly one change, so the caller can attribute every
    fallback to the failure that caused it.  Single-axis steps require
    every intermediate configuration to be valid — which holds because the
    option matrix has no composition holes along these axes (csf composes
    with every execution value; ``tests/test_conformance_matrix.py``
    walks the full descent and asserts both validity and 1e-10 parity per
    rung).
    """

    def next_step(
        self,
        *,
        execution: str,
        kernel: str = "numpy",
        tensor_format: str = "coo",
    ) -> Optional[FallbackStep]:
        """The next rung down from the given configuration, or ``None``.

        ``None`` means the configuration is already at the bottom of every
        axis — there is nothing left to degrade to, and the failure must
        surface.
        """
        current = {
            "execution": execution,
            "kernel": kernel,
            "tensor_format": tensor_format,
        }
        for field_name, down in _LADDER_AXES:
            value = current[field_name]
            if value in down:
                return FallbackStep(field_name, value, down[value])
        return None

    def steps_from(
        self,
        *,
        execution: str,
        kernel: str = "numpy",
        tensor_format: str = "coo",
    ) -> Tuple[FallbackStep, ...]:
        """Every rung below the given configuration, in descent order."""
        out = []
        current = {
            "execution": execution,
            "kernel": kernel,
            "tensor_format": tensor_format,
        }
        while True:
            step = self.next_step(**current)
            if step is None:
                return tuple(out)
            out.append(step)
            current[step.field] = step.to_value


class CircuitOpenError(RuntimeError):
    """Raised on acquisition while the breaker is open (cooling down)."""


class CircuitBreaker:
    """Consecutive-failure breaker with a cooldown and a half-open probe.

    States:

    * ``closed`` — healthy; failures are counted, ``failure_threshold``
      consecutive ones trip the breaker.
    * ``open`` — tripped; :meth:`before_call` raises
      :class:`CircuitOpenError` until ``cooldown`` seconds have passed.
    * ``half-open`` — cooldown elapsed; exactly one caller is admitted as
      a probe.  Its success closes the circuit, its failure re-opens it
      (and restarts the cooldown).

    Thread-safe; the clock is injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if int(failure_threshold) < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_out = False
        self.trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (clock-aware)."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == "open" and (
            self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = "half-open"
            self._probe_out = False
        return self._state

    def before_call(self) -> None:
        """Gate an attempt: raise :class:`CircuitOpenError` when open.

        In the half-open state exactly one caller passes (the probe);
        concurrent callers are rejected as if the breaker were open.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return
            if state == "half-open" and not self._probe_out:
                self._probe_out = True
                return
            remaining = max(
                0.0, self.cooldown - (self._clock() - self._opened_at)
            )
            raise CircuitOpenError(
                f"process-pool circuit breaker is {state} after "
                f"{self._consecutive_failures} consecutive failure(s); "
                f"next probe in {remaining:.1f}s — degrade the job or "
                "wait out the cooldown"
            )

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probe_out = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            state = self._state_locked()
            if state == "half-open" or (
                state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_out = False
                self.trips += 1
