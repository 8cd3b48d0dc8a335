"""Deterministic fault injection: scriptable crashes, errors and stalls.

Crash-path tests used to hand-roll their faults — a ``SIGKILL`` here, a
monkeypatched executor there — which makes each failure scenario bespoke and
none of them composable.  This module turns faults into *data*: a
:class:`FaultPlan` names **injection points** (stable string identifiers
compiled into the production code paths) and attaches a :class:`FaultSpec`
to each — raise this exception on the Nth hit, hard-exit the process, or
stall for a bit.  The plan is seeded and counted, so a scenario replays
identically on every run and on every interpreter.

Injection points wired into the codebase
----------------------------------------
==================== ====================================================
``shm.attach``       :func:`repro.parallel.shm.attach_segment` — every
                     shared-memory segment attach (drivers *and* workers;
                     use ``after=`` to fail partway through an attach
                     sequence, the partial-attach scenario).
``worker.ack``       the worker task loop, just before a completed task is
                     acked (``action="exit"`` here is a mid-task worker
                     crash, the scripted equivalent of a ``SIGKILL``).
``worker.job``       a whole job on a crew worker, at each progress report
                     it sends (``action="exit"`` here kills the worker in
                     the middle of a small served job).
``worker.trsvd``     every reduction of a rank of a split TRSVD on a crew
                     worker (:class:`repro.parallel.crew_trsvd.
                     ShmAllreduce`; ``action="exit"`` with ``after=`` kills
                     the worker mid-solve).
``pool.dispatch``    :meth:`repro.parallel.process_pool.HOOIProcessPool.
                     _dispatch` — driver-side, before a task batch is
                     enqueued.
``trsvd``            :func:`repro.core.trsvd.truncated_svd` and, for a
                     solve split over a crew, :meth:`repro.parallel.
                     process_pool.HOOIProcessPool.trsvd` on the driver —
                     the factor update of every mode of every sweep.
``serving.run_direct``
                     :func:`repro.serving.executor.run_direct` and
                     :func:`~repro.serving.executor.run_on_worker`, the
                     service's run paths (pooled and worker-lane jobs
                     included), before any work starts.
==================== ====================================================

Activation
----------
Programmatic (same process)::

    from repro.resilience import FaultPlan, FaultSpec, install_faults, clear_faults
    install_faults(FaultPlan([FaultSpec("pool.dispatch", action="error",
                                        error="WorkerCrashError", times=-1)]))
    ...
    clear_faults()

or via the environment — ``REPRO_FAULTS`` holds the plan's JSON
(:meth:`FaultPlan.to_json`), read once at import time.  The environment
route is how faults reach *worker processes*: both ``fork`` and ``spawn``
children inherit the variable, and each process keeps its own hit counters
(documented, deterministic — a plan that fails the 3rd attach fails the 3rd
attach *per process*).

Overhead
--------
When no plan is installed, every injection point is a single module-global
``None`` check (:func:`maybe_fail`) — no dictionary lookups, no locks, no
environment reads after import.  Production code pays nothing for being
injectable.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "FAULT_ENV",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "install_faults",
    "clear_faults",
    "active_injector",
    "maybe_fail",
    "INJECTION_POINTS",
]

#: Environment variable holding a JSON-encoded :class:`FaultPlan`.
FAULT_ENV = "REPRO_FAULTS"

#: The injection points compiled into the codebase (see the module
#: docstring).  Plans may only target these — a typo'd point name would
#: otherwise silently never fire, the worst failure mode a fault harness
#: can have.
INJECTION_POINTS = (
    "shm.attach",
    "worker.ack",
    "worker.job",
    "worker.trsvd",
    "pool.dispatch",
    "trsvd",
    "serving.run_direct",
)

#: Actions a spec may take when it fires.
FAULT_ACTIONS = ("error", "exit", "delay")


class InjectedFault(RuntimeError):
    """Default exception raised by ``action="error"`` specs."""


#: Exception names a spec may raise.  Validation checks the *name* only;
#: the class is resolved at fire time (:func:`_resolve_error`) so that
#: env-activated plans can be armed while :mod:`repro.parallel` is still
#: mid-import (this module is imported from its hot paths).
_ERROR_NAMES = (
    "InjectedFault",
    "RuntimeError",
    "OSError",
    "MemoryError",
    "TimeoutError",
    "ValueError",
    "WorkerCrashError",
)


def _resolve_error(name: str) -> type:
    if name == "WorkerCrashError":
        from repro.parallel.process_pool import WorkerCrashError

        return WorkerCrashError
    return {
        "InjectedFault": InjectedFault,
        "RuntimeError": RuntimeError,
        "OSError": OSError,
        "MemoryError": MemoryError,
        "TimeoutError": TimeoutError,
        "ValueError": ValueError,
    }[name]


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault at one injection point.

    The spec fires on hits ``after < hit <= after + times`` of its point
    (``times=-1`` fires forever once reached), optionally thinned by a
    seeded ``probability`` draw — every knob is deterministic, so a failing
    chaos scenario replays exactly.

    ``action``:

    * ``"error"`` — raise ``error`` (a class name from the registry:
      ``InjectedFault``, ``RuntimeError``, ``OSError``, ``MemoryError``,
      ``TimeoutError``, ``ValueError``, ``WorkerCrashError``).
    * ``"exit"`` — ``os._exit(exit_code)``: an un-catchable process death,
      the scripted stand-in for ``SIGKILL`` (only meaningful at points that
      execute inside worker processes).
    * ``"delay"`` — sleep ``delay`` seconds, then continue normally (models
      a stall / slow disk / scheduling hiccup).
    """

    point: str
    action: str = "error"
    times: int = 1
    after: int = 0
    probability: float = 1.0
    delay: float = 0.0
    error: str = "InjectedFault"
    message: str = "injected fault"
    exit_code: int = 23

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}: the compiled-in "
                f"points are {INJECTION_POINTS} (a misspelled point would "
                "silently never fire)"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}: expected one of "
                f"{FAULT_ACTIONS}"
            )
        if self.action == "error" and self.error not in _ERROR_NAMES:
            raise ValueError(
                f"unknown error class {self.error!r}: expected one of "
                f"{sorted(_ERROR_NAMES)}"
            )
        if self.times < -1 or self.times == 0:
            raise ValueError(
                f"times must be -1 (unlimited) or >= 1, got {self.times}"
            )
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}"
            )

    def to_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of :class:`FaultSpec` entries."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        object.__setattr__(self, "specs", tuple(specs))
        object.__setattr__(self, "seed", int(seed))

    def to_json(self) -> str:
        """The plan as JSON — the ``REPRO_FAULTS`` wire format."""
        return json.dumps(
            {
                "schema": "fault-plan/1",
                "seed": self.seed,
                "faults": [spec.to_dict() for spec in self.specs],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        data = json.loads(payload)
        if not isinstance(data, dict) or "faults" not in data:
            raise ValueError(
                "a fault plan is a JSON object with a 'faults' list "
                "(and an optional 'seed'); see FaultPlan.to_json()"
            )
        known = {spec.name for spec in fields(FaultSpec)}
        specs = []
        for entry in data["faults"]:
            unknown = sorted(set(entry) - known)
            if unknown:
                raise ValueError(
                    f"unknown FaultSpec key(s) {unknown}: valid keys are "
                    f"{sorted(known)}"
                )
            specs.append(FaultSpec(**entry))
        return cls(specs, seed=int(data.get("seed", 0)))


class _ArmedSpec:
    """Mutable firing state of one spec (hit counter + seeded RNG)."""

    def __init__(self, spec: FaultSpec, seed: int, index: int) -> None:
        self.spec = spec
        self.hits = 0
        self.fired = 0
        # Each spec draws from its own deterministic stream, so reordering
        # unrelated specs in a plan never changes another spec's decisions.
        self.rng = random.Random(f"{seed}:{index}:{spec.point}")

    def fire(self) -> None:
        spec = self.spec
        self.hits += 1
        if self.hits <= spec.after:
            return
        if spec.times != -1 and self.fired >= spec.times:
            return
        if spec.probability < 1.0 and self.rng.random() >= spec.probability:
            return
        self.fired += 1
        if spec.action == "delay":
            time.sleep(spec.delay)
            return
        if spec.action == "exit":
            os._exit(spec.exit_code)
        raise _resolve_error(spec.error)(
            f"{spec.message} [fault point={spec.point!r} hit={self.hits}]"
        )


class FaultInjector:
    """Armed form of a :class:`FaultPlan` (per-process counters, thread-safe)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._by_point: Dict[str, list] = {}
        for index, spec in enumerate(plan.specs):
            self._by_point.setdefault(spec.point, []).append(
                _ArmedSpec(spec, plan.seed, index)
            )

    def fire(self, point: str) -> None:
        """Hit an injection point; may raise, exit or stall per the plan."""
        armed = self._by_point.get(point)
        if not armed:
            return
        with self._lock:
            for entry in armed:
                entry.fire()

    def counters(self) -> Dict[str, Tuple[int, int]]:
        """Per-point ``(hits, fired)`` totals (for assertions in tests)."""
        out: Dict[str, Tuple[int, int]] = {}
        for point, armed in self._by_point.items():
            out[point] = (
                sum(e.hits for e in armed),
                sum(e.fired for e in armed),
            )
        return out


# -- module-global activation ---------------------------------------------- #
_active: Optional[FaultInjector] = None


def install_faults(plan: FaultPlan) -> FaultInjector:
    """Arm a plan in this process (replacing any active one)."""
    global _active
    _active = FaultInjector(plan)
    return _active


def clear_faults() -> None:
    """Disarm fault injection in this process."""
    global _active
    _active = None


def active_injector() -> Optional[FaultInjector]:
    """The armed injector, or ``None`` when injection is disabled."""
    return _active


def maybe_fail(point: str) -> None:
    """The injection-point hook compiled into production code.

    A single global ``None`` check when no plan is armed — the zero-overhead
    guarantee that lets injection points live in hot paths.
    """
    if _active is not None:
        _active.fire(point)


def _load_env_plan() -> None:
    payload = os.environ.get(FAULT_ENV)
    if not payload:
        return
    # A malformed plan must fail loudly: a chaos run whose faults silently
    # never arm reads as "everything survived", the opposite of the truth.
    install_faults(FaultPlan.from_json(payload))


_load_env_plan()
