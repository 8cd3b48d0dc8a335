"""Fault tolerance: checkpoint/resume, graceful degradation, fault injection.

Three cooperating pieces, each usable on its own:

* :mod:`repro.resilience.checkpoint` — sweep-boundary snapshots of HOOI
  state with atomic writes and content-hash verified resume
  (``HOOIOptions.checkpoint_dir`` / ``resume=`` on the drivers).
* :mod:`repro.resilience.degrade` — the ordered fallback ladder
  (process → thread → sequential; numba → numpy; csf → coo) and the
  circuit breaker that guards the serving process pool.
* :mod:`repro.resilience.faults` — the seeded fault-injection harness
  (``REPRO_FAULTS``) that makes crash scenarios scriptable data.

See README "Fault tolerance & graceful degradation".
"""

from repro.resilience.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointState,
    Checkpointer,
    load_checkpoint,
    resolve_resume,
    save_checkpoint,
)
from repro.resilience.degrade import (
    FALLBACK_POLICIES,
    CircuitBreaker,
    CircuitOpenError,
    DegradationLadder,
    FallbackStep,
)
from repro.resilience.faults import (
    FAULT_ENV,
    INJECTION_POINTS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_injector,
    clear_faults,
    install_faults,
    maybe_fail,
)

__all__ = [
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointState",
    "Checkpointer",
    "load_checkpoint",
    "resolve_resume",
    "save_checkpoint",
    "FALLBACK_POLICIES",
    "CircuitBreaker",
    "CircuitOpenError",
    "DegradationLadder",
    "FallbackStep",
    "FAULT_ENV",
    "INJECTION_POINTS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_injector",
    "clear_faults",
    "install_faults",
    "maybe_fail",
]
