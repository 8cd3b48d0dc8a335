"""Sweep-boundary checkpointing of HOOI state: snapshot, verify, resume.

A long multi-sweep HOOI run on a large sparse tensor is exactly the workload
where a fault at sweep ``N`` is most expensive: everything up to sweep
``N−1`` is recomputable but *was already computed*.  The state that fully
determines the rest of the run is small — the factor matrices, the core,
the fit history, the sweep counter — because the TTMc/TRSVD of sweep ``N``
depends only on the tensor (immutable) and the factors at the end of sweep
``N−1``, and every stochastic ingredient (init, the Lanczos start vector) is
re-seeded per call from ``HOOIOptions.seed``.  Snapshotting at sweep
boundaries therefore makes a resumed run reproduce the uninterrupted one
**exactly** (bitwise where representable; asserted to 1e-10 in the test
suite across the sequential/thread/process backends).

File format
-----------
One ``.npz`` per checkpoint: the factor matrices, the core, the fit
history, the (legacy global) NumPy RNG keys, and a JSON ``meta`` record
(sweep counter, shape/ranks/dtype, the full options dict and its
fingerprint, schema version) — plus a sha256 **content digest** over all of
it.  :func:`load_checkpoint` recomputes the digest and refuses a file whose
bytes do not match (:class:`CheckpointCorruptError`): a torn or bit-rotted
checkpoint must never silently seed a resumed run.

Writes are atomic: serialize to ``<path>.tmp-<pid>``, flush + fsync, then
``os.replace`` onto the final name — a crash mid-write leaves the previous
good checkpoint in place, never a half-written one.

Use
---
Drivers build a :class:`Checkpointer` (usually from
``HOOIOptions.checkpoint_dir`` / ``checkpoint_interval``) and hand it to
:meth:`repro.engine.driver.HOOIEngine.run` via ``checkpoint=``; resuming
passes a :class:`CheckpointState` (or a path, or ``"auto"``) through
``resume=`` on :func:`repro.core.hooi.hooi` / :func:`repro.decompose`.
The serving layer wires both automatically (``DecompositionService(
checkpoint_dir=...)``): a crash-retried job restarts from its last good
sweep instead of sweep 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "CheckpointState",
    "CheckpointError",
    "CheckpointCorruptError",
    "Checkpointer",
    "save_checkpoint",
    "load_checkpoint",
    "resolve_resume",
    "RESUME_COMPAT_EXCLUDE",
]

#: Schema tag written into every checkpoint's meta record.
CHECKPOINT_SCHEMA = "hooi-checkpoint/1"

#: Option fields a resumed run may legitimately change.  Everything else
#: shapes the per-sweep numerics (kernels, formats, solver, precision,
#: seed), and resuming across such a change would *not* reproduce the
#: uninterrupted run — :func:`check_resume_compatible` rejects it.  Run
#: length / convergence knobs, checkpoint placement and the execution
#: model (parity across backends is 1e-10 by the conformance matrix) are
#: safe to vary — resuming a crashed process-pool run on the sequential
#: backend is precisely the degradation story.  Only the running options'
#: keys are compared, so a key that only the checkpoint records (an option
#: field a later build deleted) never blocks a resume.
RESUME_COMPAT_EXCLUDE = frozenset(
    {
        "max_iterations",
        "tolerance",
        "checkpoint_dir",
        "checkpoint_interval",
        "fallback",
        "execution",
        "num_workers",
    }
)


class CheckpointError(RuntimeError):
    """Base class of checkpoint load/save failures."""


class CheckpointCorruptError(CheckpointError):
    """The checkpoint's content digest does not match its payload."""


@dataclass
class CheckpointState:
    """One sweep boundary's complete resumable state."""

    factors: List[np.ndarray]
    core: np.ndarray
    fit_history: List[float]
    completed_sweeps: int
    shape: Tuple[int, ...]
    ranks: Tuple[int, ...]
    dtype: str
    options: Dict[str, object] = field(default_factory=dict)
    options_fingerprint: str = ""
    rng_state: Optional[dict] = None


def _digest(arrays: Dict[str, np.ndarray], meta_json: str) -> str:
    """Canonical sha256 over the payload (arrays in sorted key order)."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        h.update(key.encode("utf-8"))
        h.update(str(arr.dtype.str).encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(arr.tobytes())
    h.update(meta_json.encode("utf-8"))
    return h.hexdigest()


def _capture_rng_state() -> dict:
    """The legacy global NumPy RNG state, JSON-ready (keys stored aside).

    Nothing in the engine draws from the global stream today (init and the
    Lanczos TRSVD re-seed per call), but snapshotting it is cheap and
    future-proofs the exact-resume guarantee against a kernel that does.
    """
    kind, keys, pos, has_gauss, cached = np.random.get_state()
    return {
        "kind": str(kind),
        "pos": int(pos),
        "has_gauss": int(has_gauss),
        "cached_gaussian": float(cached),
        "keys": np.asarray(keys, dtype=np.uint32),
    }


def restore_rng_state(state: Optional[dict]) -> None:
    """Reinstall a captured global RNG state (no-op for ``None``)."""
    if not state:
        return
    np.random.set_state(
        (
            state["kind"],
            np.asarray(state["keys"], dtype=np.uint32),
            int(state["pos"]),
            int(state["has_gauss"]),
            float(state["cached_gaussian"]),
        )
    )


def save_checkpoint(path: Union[str, Path], state: CheckpointState) -> Path:
    """Atomically write a verified checkpoint file and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: Dict[str, np.ndarray] = {
        f"factor{n}": np.ascontiguousarray(f)
        for n, f in enumerate(state.factors)
    }
    arrays["core"] = np.ascontiguousarray(state.core)
    arrays["fit_history"] = np.asarray(state.fit_history, dtype=np.float64)
    rng = state.rng_state
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "completed_sweeps": int(state.completed_sweeps),
        "order": len(state.factors),
        "shape": [int(s) for s in state.shape],
        "ranks": [int(r) for r in state.ranks],
        "dtype": str(state.dtype),
        "options": state.options,
        "options_fingerprint": state.options_fingerprint,
        "rng": None,
    }
    if rng is not None:
        arrays["rng_keys"] = np.asarray(rng["keys"], dtype=np.uint32)
        meta["rng"] = {
            k: rng[k] for k in ("kind", "pos", "has_gauss", "cached_gaussian")
        }
    meta_json = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    digest = _digest(arrays, meta_json)

    fd, tmp_name = tempfile.mkstemp(
        prefix=f"{path.name}.tmp-{os.getpid()}-", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(
                handle,
                __meta__=np.frombuffer(
                    meta_json.encode("utf-8"), dtype=np.uint8
                ),
                __sha256__=np.frombuffer(
                    digest.encode("ascii"), dtype=np.uint8
                ),
                **arrays,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: Union[str, Path]) -> CheckpointState:
    """Read and integrity-check a checkpoint file.

    Raises :class:`FileNotFoundError` when absent, :class:`CheckpointError`
    on a malformed file, :class:`CheckpointCorruptError` when the stored
    digest does not match the recomputed one.
    """
    path = Path(path)
    with np.load(path) as payload:
        names = set(payload.files)
        if "__meta__" not in names or "__sha256__" not in names:
            raise CheckpointError(
                f"{path} is not a HOOI checkpoint (missing meta/digest "
                "records)"
            )
        meta_json = bytes(payload["__meta__"]).decode("utf-8")
        stored_digest = bytes(payload["__sha256__"]).decode("ascii")
        arrays = {
            name: payload[name]
            for name in names
            if name not in ("__meta__", "__sha256__")
        }
    if _digest(arrays, meta_json) != stored_digest:
        raise CheckpointCorruptError(
            f"checkpoint {path} failed its content-hash integrity check: "
            "the file was truncated or corrupted — delete it (a resumed run "
            "must never start from damaged state; the run can still restart "
            "from sweep 0)"
        )
    meta = json.loads(meta_json)
    if meta.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has schema {meta.get('schema')!r}; this "
            f"build reads {CHECKPOINT_SCHEMA!r}"
        )
    rng = None
    if meta.get("rng") is not None:
        rng = dict(meta["rng"])
        rng["keys"] = arrays["rng_keys"]
    return CheckpointState(
        factors=[arrays[f"factor{n}"] for n in range(int(meta["order"]))],
        core=arrays["core"],
        fit_history=[float(v) for v in arrays["fit_history"]],
        completed_sweeps=int(meta["completed_sweeps"]),
        shape=tuple(meta["shape"]),
        ranks=tuple(meta["ranks"]),
        dtype=str(meta["dtype"]),
        options=dict(meta.get("options") or {}),
        options_fingerprint=str(meta.get("options_fingerprint", "")),
        rng_state=rng,
    )


def check_resume_compatible(state: CheckpointState, eng) -> None:
    """Reject a resume that would not reproduce the uninterrupted run.

    Structural identity (shape, ranks, dtype) is checked hard; option
    fields outside :data:`RESUME_COMPAT_EXCLUDE` must match the checkpoint's
    recorded options — the error names each mismatched field so the caller
    can see exactly which knob diverged.
    """
    if tuple(state.shape) != tuple(eng.shape):
        raise ValueError(
            f"cannot resume: checkpoint holds a tensor of shape "
            f"{tuple(state.shape)} but the run's tensor is {eng.shape}"
        )
    if tuple(state.ranks) != tuple(eng.ranks):
        raise ValueError(
            f"cannot resume: checkpoint was taken at ranks "
            f"{tuple(state.ranks)} but the run asks for {tuple(eng.ranks)}"
        )
    if np.dtype(state.dtype) != np.dtype(eng.dtype):
        raise ValueError(
            f"cannot resume: checkpoint dtype {state.dtype} != run dtype "
            f"{np.dtype(eng.dtype).name} (the precision policy shapes every "
            "sweep's numerics)"
        )
    if not state.options:
        return
    try:
        current = eng.options.to_dict()
    except ValueError:
        # Array-init options have no serializable form; structural checks
        # above are all a checkpoint can verify against them.
        return
    # Checkpoints written by older builds may record None spellings for the
    # optional axis fields; the running engine's options are validated (so
    # always concrete).  Normalize both sides to the same spelling before
    # comparing — None-vs-concrete for the same configuration is not a real
    # mismatch.
    from repro.core.hooi import normalize_axis_fields

    recorded = normalize_axis_fields(state.options)
    current = normalize_axis_fields(current)
    mismatched = sorted(
        key
        for key in current
        if key not in RESUME_COMPAT_EXCLUDE
        and key in recorded
        and recorded[key] != current[key]
    )
    if mismatched:
        raise ValueError(
            "cannot resume: option(s) "
            + ", ".join(
                f"{key}={current[key]!r} (checkpoint: {recorded[key]!r})"
                for key in mismatched
            )
            + " differ from the checkpointed run, so the resumed sweeps "
            "would not reproduce the uninterrupted run — match the options "
            "or restart from sweep 0 (run-length/backend knobs "
            f"{sorted(RESUME_COMPAT_EXCLUDE)} may vary freely)"
        )


class Checkpointer:
    """Writes one rolling checkpoint file at configured sweep boundaries.

    The engine calls :meth:`on_sweep` after every completed sweep; the
    checkpointer snapshots every ``interval``-th one (always including the
    very first, so a crash during a long first stretch still has something
    to resume from).  ``saves`` counts actual writes; :meth:`load` /
    :meth:`discard` manage the rolling file.
    """

    #: File name of the rolling checkpoint inside ``directory``.
    FILENAME = "hooi.ckpt.npz"

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        interval: int = 1,
        filename: Optional[str] = None,
    ) -> None:
        if int(interval) < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.directory = Path(directory)
        self.interval = int(interval)
        self.path = self.directory / (filename or self.FILENAME)
        self.saves = 0

    def on_sweep(
        self,
        eng,
        sweep: int,
        core: np.ndarray,
        fit_history: Sequence[float],
    ) -> Optional[Path]:
        """Engine hook: snapshot the state of a just-completed sweep."""
        if sweep % self.interval != 0 and sweep != 1:
            return None
        try:
            options = eng.options.to_dict()
            fingerprint = eng.options.options_fingerprint()
        except ValueError:
            options, fingerprint = {}, ""
        state = CheckpointState(
            factors=list(eng.factors),
            core=np.asarray(core),
            fit_history=list(fit_history),
            completed_sweeps=int(sweep),
            shape=tuple(eng.shape),
            ranks=tuple(eng.ranks),
            dtype=np.dtype(eng.dtype).name,
            options=options,
            options_fingerprint=fingerprint,
            rng_state=_capture_rng_state(),
        )
        out = save_checkpoint(self.path, state)
        self.saves += 1
        return out

    def load(self) -> Optional[CheckpointState]:
        """The last good checkpoint, or ``None`` when none exists."""
        if not self.path.exists():
            return None
        return load_checkpoint(self.path)

    def discard(self) -> None:
        """Remove the rolling checkpoint (a completed run needs none).

        Temporary files that a writer killed mid-save left beside it go
        too: a crew worker running a served job writes its checkpoints, and
        a ``SIGKILL`` can land inside :func:`save_checkpoint`.
        """
        for path in (
            self.path, *self.directory.glob(f"{self.path.name}.tmp-*")
        ):
            try:
                path.unlink()
            except FileNotFoundError:
                pass


def resolve_resume(
    resume: Union[None, str, Path, CheckpointState, bool],
    checkpointer: Optional[Checkpointer] = None,
) -> Optional[CheckpointState]:
    """Normalize the public ``resume=`` argument into a loaded state.

    ``None``/``False`` → no resume.  A :class:`CheckpointState` passes
    through.  A path loads that file.  ``True`` / ``"auto"`` loads the
    checkpointer's rolling file when it exists (silently fresh-starting
    otherwise — the serving retry path's idiom, where attempt 1 may have
    died before its first sweep completed).
    """
    if resume is None or resume is False:
        return None
    if isinstance(resume, CheckpointState):
        return resume
    if resume is True or resume == "auto":
        if checkpointer is None:
            raise ValueError(
                "resume='auto' needs a checkpoint location: set "
                "HOOIOptions.checkpoint_dir (or pass an explicit checkpoint "
                "path / CheckpointState instead)"
            )
        return checkpointer.load()
    return load_checkpoint(Path(resume))
