"""Sequential HOOI (Higher Order Orthogonal Iteration), Algorithm 1/3 of the paper.

This is the reference driver every parallel variant is validated against.  It
follows the structure of Algorithm 3 minus the ``parfor``s:

1. build the symbolic TTMc data for every mode once (outside the main loop);
2. per iteration and per mode: numeric TTMc into the matricized ``Y_(n)``,
   then a truncated SVD of ``Y_(n)`` to refresh ``U_n``;
3. after the last mode, the core tensor is obtained from the already-available
   ``Y_(N)`` with a single small dense multiply, and the fit
   ``1 - ||X - X̂|| / ||X||`` is monitored for convergence.

Since the engine refactor the iteration loop itself lives in
:class:`repro.engine.driver.HOOIEngine`; :func:`hooi` configures it with the
backend :func:`~repro.engine.backend.resolve_ttmc_backend` picks.  This module keeps the
shared option/result containers every driver uses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.trsvd import TRSVDResult
from repro.core.tucker import TuckerTensor
from repro.util.timing import TimingBreakdown

__all__ = [
    "AXIS_DEFAULTS",
    "HOOIOptions",
    "HOOIResult",
    "hooi",
    "hooi_iteration_stats",
    "normalize_axis_fields",
]

#: Values each option axis accepts, anywhere.  Context-specific composition
#: rules live in :meth:`HOOIOptions.validate`; the conformance matrix
#: (``tests/test_conformance_matrix.py``) sweeps these axes.  One value sits
#: outside its full cross product: ``"process"`` (distributed rejection is in
#: the matrix; single-node parity lives in ``tests/test_process_backend.py``,
#: which spawns real worker pools).
TRSVD_METHODS = ("lanczos", "gram")
TTMC_STRATEGIES = ("per-mode", "dimtree")
EXECUTIONS = ("sequential", "thread", "process")
TENSOR_FORMATS = ("coo", "csf")
KERNELS = ("numpy", "numba")
FALLBACK_POLICIES = ("ladder", "none")
VALIDATION_CONTEXTS = ("single-node", "distributed")

#: Reasons a run ended (:attr:`HOOIResult.termination`): the fit improvement
#: dropped below the tolerance, the sweep budget ran out, a ``cancel_check``
#: requested a graceful stop, or a resumed checkpoint already satisfied the
#: requested ``max_iterations`` so no new sweep ran.
TERMINATIONS = ("converged", "max_iters", "cancelled", "resumed")

#: Concrete spellings the optional axis fields normalize to.
#: :meth:`HOOIOptions.validate` writes these back onto the instance, so a
#: validated options object never carries a ``None`` axis;
#: :func:`normalize_axis_fields` applies the same normalization to
#: serialized option dicts (checkpoints written by pre-normalization builds
#: may have recorded ``None`` spellings).
AXIS_DEFAULTS: Dict[str, str] = {
    "ttmc_strategy": "per-mode",
    "execution": "sequential",
    "tensor_format": "coo",
    "kernel": "numpy",
    "fallback": "ladder",
}


def normalize_axis_fields(data: Mapping[str, object]) -> Dict[str, object]:
    """Copy an options dict with ``None`` axis fields made concrete.

    Only keys that are *present and None* are rewritten; absent keys stay
    absent (partial dicts keep their default-insensitive semantics via
    :meth:`HOOIOptions.from_dict`).
    """
    out = dict(data)
    for key, default in AXIS_DEFAULTS.items():
        if key in out and out[key] is None:
            out[key] = default
    return out


@dataclass
class HOOIOptions:
    """Knobs of the HOOI drivers (defaults follow the paper's experiments).

    ``trsvd_method`` selects the factor-update solver: ``"lanczos"`` (the
    default and the paper's method, mirroring SLEPc; the only solver the
    distributed driver runs) or ``"gram"`` (eigendecomposition of the small
    ``W × W`` Gram matrix ``YᵀY`` — the right tool when the matricized width
    ``W = ∏_{t≠n} R_t`` is small relative to ``I_n``, with a squared-spectrum
    conditioning caveat; see :func:`repro.core.trsvd.gram_svd`).  ``dtype``
    is the engine's precision policy (``"float32"`` or ``"float64"``) applied
    to the tensor values, factors, TTMc and TRSVD operands alike.
    ``ttmc_strategy`` selects how the sequential and shared-memory drivers
    evaluate the TTMc phase: ``"per-mode"`` (each mode's chain recomputed
    from scratch, the paper's Algorithm 2) or ``"dimtree"`` (memoized partial
    chains on a binary dimension tree, :mod:`repro.engine.dimtree` — fewer
    multiplies per sweep in exchange for resident semi-sparse intermediates).
    ``execution`` selects the single-node execution model: ``"sequential"``
    (default), ``"thread"`` (GIL-bound worker threads — the paper's work
    decomposition, limited wall-clock gain in CPython) or ``"process"``
    (worker processes with zero-copy shared memory — true multicore;
    ``num_workers`` sets the worker count for both).  Both compose with
    either ``ttmc_strategy`` and with the dtype policy.
    ``tensor_format`` selects the storage the TTMc phase executes on:
    ``"coo"`` (the flat coordinate layout every other axis value was built
    on) or ``"csf"`` (Compressed Sparse Fiber trees,
    :mod:`repro.sparse.csf` — shared index prefixes stored once, TTMc as
    vectorized fiber-segment sweeps; one rooted tree per mode by default).
    CSF composes with every ``execution`` value, every ``trsvd_method`` /
    ``dtype`` / distributed grain, and with both ``ttmc_strategy`` values:
    ``"per-mode"`` runs one rooted CSF tree per mode, ``"dimtree"`` builds
    the dimension tree's nodes over the shared CSF tree's fiber subtrees
    (the leaf matricizations and subset-fiber updates walk the compressed
    layout instead of grouped COO rows), and ``"process"`` serializes the
    per-level CSF arrays into the shared-memory arena so each worker
    attaches the trees once and sweeps disjoint root-fiber slabs lock-free.
    ``kernel`` selects the *implementation tier* of the TTMc inner loops:
    ``"numpy"`` (default — the vectorized kernels) or ``"numba"`` (fused,
    JIT-compiled loop bodies, :mod:`repro.kernels` — same numerics, one
    fused pass per output row instead of gathers plus sparse × dense
    segment-sums).  The
    numba tier requires the numba package and composes with both tensor
    formats, every execution model and the distributed grains (each rank /
    worker runs the compiled loops on its local rows), but not with
    ``ttmc_strategy="dimtree"`` — the one remaining composition hole,
    fail-fast with the missing entry points named
    (:data:`repro.kernels.MISSING_DIMTREE_KERNELS`).  On the distributed
    driver every rank runs the options locally (hybrid MPI+threads ranks,
    rank-local dimension trees or CSF trees); what composes per context is
    defined by :meth:`validate` and specified executable-y by
    ``tests/test_conformance_matrix.py``.
    """

    max_iterations: int = 5
    tolerance: float = 1e-5
    init: str | Sequence[np.ndarray] = "random"
    trsvd_method: str = "lanczos"
    trsvd_tol: float = 1e-8
    seed: Optional[int] = 0
    block_nnz: Optional[int] = None
    track_fit: bool = True
    dtype: str = "float64"
    ttmc_strategy: str = "per-mode"
    execution: str = "sequential"
    num_workers: int = 1
    tensor_format: str = "coo"
    kernel: str = "numpy"
    # Resilience knobs (PR 8).  ``checkpoint_dir`` enables sweep-boundary
    # checkpointing into that directory (atomic, content-hash verified;
    # ``checkpoint_interval`` snapshots every k-th sweep); ``fallback``
    # selects whether the serving layer may degrade a persistently failing
    # job down the process→thread→sequential / numba→numpy / csf→coo
    # ladder ("ladder", default) or must fail it loudly ("none").
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 1
    fallback: str = "ladder"

    def validate(self, context: str = "single-node") -> "HOOIOptions":
        """Check the option values *and* their composition for a driver context.

        This is the single source of truth for what composes: the drivers
        (:func:`hooi`, :func:`repro.parallel.shared_hooi.shared_hooi`,
        :func:`repro.distributed.dist_hooi.distributed_hooi`), the backend
        resolver (:func:`repro.engine.backend.resolve_ttmc_backend`) and the
        conformance-matrix test suite all call it instead of keeping their
        own scattered guards.

        ``context`` is ``"single-node"`` (the sequential / threaded / process
        drivers — every axis value composes with every other) or
        ``"distributed"`` (the simulated-MPI driver, where each rank runs the
        options *locally*).  The distributed composition rules:

        * ``trsvd_method`` must be ``"lanczos"`` — the only TRSVD with a
          distributed (fold/scatter + allreduce) implementation
          (Section III-B of the paper);
        * ``execution`` may be ``"sequential"`` or ``"thread"`` (the paper's
          hybrid MPI+threads ranks) but not ``"process"`` — every simulated
          rank would spawn its own worker-process pool and oversubscribe the
          node;
        * both ``ttmc_strategy`` values compose (each rank builds its own
          per-mode symbolic data or rank-local dimension tree).

        Returns ``self`` so drivers can validate inline; raises
        :class:`ValueError` with an actionable message otherwise.
        """
        if context not in VALIDATION_CONTEXTS:
            raise ValueError(
                f"unknown validation context {context!r}: expected one of "
                f"{VALIDATION_CONTEXTS}"
            )
        if self.trsvd_method not in TRSVD_METHODS:
            raise ValueError(
                f"unknown trsvd_method {self.trsvd_method!r}: expected one of "
                f"{TRSVD_METHODS}"
            )
        strategy = self.ttmc_strategy or "per-mode"
        if strategy not in TTMC_STRATEGIES:
            raise ValueError(
                f"unknown ttmc_strategy {strategy!r}: expected 'per-mode' or "
                "'dimtree'"
            )
        execution = self.execution or "sequential"
        if execution not in EXECUTIONS:
            raise ValueError(
                f"unknown execution {execution!r}: expected 'sequential', "
                "'thread' or 'process'"
            )
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"unknown dtype {self.dtype!r}: the engine's precision policy "
                "supports 'float32' and 'float64'"
            )
        if int(self.num_workers) < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if int(self.max_iterations) < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        tensor_format = self.tensor_format or "coo"
        if tensor_format not in TENSOR_FORMATS:
            raise ValueError(
                f"unknown tensor_format {tensor_format!r}: expected one of "
                f"{TENSOR_FORMATS}"
            )
        kernel = self.kernel or "numpy"
        if kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}: expected one of {KERNELS}"
            )
        fallback = self.fallback or "ladder"
        if fallback not in FALLBACK_POLICIES:
            raise ValueError(
                f"unknown fallback policy {fallback!r}: expected one of "
                f"{FALLBACK_POLICIES} ('ladder' lets a persistently failing "
                "job degrade to a slower-but-working tier; 'none' fails it "
                "once retries are exhausted)"
            )
        if int(self.checkpoint_interval) < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got "
                f"{self.checkpoint_interval}"
            )
        if kernel == "numba":
            # Import here: repro.kernels is a leaf package, but keeping core
            # importable without it costs nothing.
            from repro.kernels import missing_dimtree_kernel_message, require_kernel

            if strategy == "dimtree":
                raise ValueError(missing_dimtree_kernel_message())
            require_kernel(kernel)

        if context == "distributed":
            if self.trsvd_method != "lanczos":
                raise ValueError(
                    "the distributed driver supports only "
                    f"trsvd_method='lanczos', got {self.trsvd_method!r}: the "
                    "gram solver has no distributed (fold/scatter) "
                    "implementation — run it on the single-node drivers "
                    "instead"
                )
            if execution == "process":
                raise ValueError(
                    "the distributed driver rejects execution='process': "
                    "every simulated MPI rank would spawn its own "
                    "worker-process pool and oversubscribe the node; use "
                    "execution='thread' for hybrid rank×thread runs, or the "
                    "single-node drivers for process execution"
                )
        # Normalize the optional axis fields to their concrete spellings.
        # Downstream consumers compare options structurally —
        # ``options_fingerprint``, ``check_resume_compatible``,
        # ``DegradationLadder.effective_options`` — and must never see a
        # ``None``-vs-concrete split for the same configuration.
        self.ttmc_strategy = strategy
        self.execution = execution
        self.tensor_format = tensor_format
        self.kernel = kernel
        self.fallback = fallback
        return self

    # -- serialization contract ------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """The options as a plain, JSON-serializable dict (every field).

        This is the wire format of the serving layer's job submissions and
        the input :meth:`from_dict` round-trips.  Explicit factor-matrix
        initialization (``init`` given as a sequence of arrays) has no
        serializable form and is rejected with an actionable error — pass
        ``init="random"`` or ``init="hosvd"`` for serializable options.
        """
        if not isinstance(self.init, str):
            raise ValueError(
                "HOOIOptions with an explicit factor-matrix init (a sequence "
                "of arrays) cannot be serialized: to_dict()/"
                "options_fingerprint() need a value-form options object — "
                "use init='random' or init='hosvd', or keep the explicit "
                "factors on the low-level hooi(...) call path"
            )
        out: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None and spec.name in (
                "max_iterations", "num_workers", "seed", "block_nnz",
                "checkpoint_interval",
            ):
                value = int(value)
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "HOOIOptions":
        """Build options from a (possibly partial) dict, rejecting unknowns.

        Missing keys take their defaults, so a fingerprint computed from a
        partial submission equals the fingerprint of the fully-specified
        equivalent (:meth:`options_fingerprint` is default-insensitive).
        Unknown keys raise — a misspelled option silently falling back to
        its default is exactly the failure mode a serializable API must not
        have.
        """
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown HOOIOptions key(s) {unknown}: valid keys are "
                f"{sorted(known)} — check the spelling (from_dict rejects "
                "unknowns instead of silently using defaults)"
            )
        return cls(**dict(data))

    def options_fingerprint(self) -> str:
        """Canonical hash of the options — the cache/wire identity.

        Computed over the *complete* field set serialized with sorted keys,
        so it is insensitive to both construction order and to whether a
        value was spelled out or defaulted:
        ``HOOIOptions().options_fingerprint() ==
        HOOIOptions.from_dict({}).options_fingerprint() ==
        HOOIOptions(max_iterations=5).options_fingerprint()``.
        Together with :meth:`repro.core.sparse_tensor.SparseTensor.fingerprint`
        (and the ranks) it keys the serving layer's result cache.
        """
        payload = json.dumps(
            {"schema": "hooi-options/1", "options": self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class HOOIResult:
    """Outcome of a HOOI run.

    ``fit_history`` holds one entry per tracked iteration; with
    ``track_fit=False`` it holds the single fit evaluated after the final
    iteration, so :attr:`fit` is always populated on a completed run.

    ``completed_sweeps`` counts every completed sweep the factors embody —
    including sweeps replayed from a resumed checkpoint — and
    ``termination`` says *why* the run stopped (one of
    :data:`TERMINATIONS`), so callers can tell a cancelled partial result
    from a converged one.  ``resumed_sweeps`` is the checkpoint's
    contribution (0 for a fresh run).
    """

    decomposition: TuckerTensor
    fit_history: List[float]
    iterations: int
    converged: bool
    timings: TimingBreakdown
    trsvd_stats: List[TRSVDResult] = field(default_factory=list)
    completed_sweeps: int = 0
    termination: str = "max_iters"
    resumed_sweeps: int = 0

    @property
    def fit(self) -> float:
        """Final fit ``1 - ||X - X̂|| / ||X||``.

        Raises :class:`ValueError` when ``fit_history`` is empty — that only
        happens on a result assembled from a run that died mid-iteration, and
        silently returning NaN used to let such failures propagate into
        reports unnoticed.
        """
        if not self.fit_history:
            raise ValueError(
                "fit_history is empty: the run did not complete an iteration "
                "(a completed run always records at least the final fit, even "
                "with track_fit=False)"
            )
        return self.fit_history[-1]


def hooi(
    tensor,
    ranks: Sequence[int] | int,
    options: Optional[HOOIOptions] = None,
    *,
    callback: Optional[Callable[[int, float], None]] = None,
    workspace=None,
    cancel_check: Optional[Callable[[], None]] = None,
    checkpoint=None,
    resume=None,
) -> HOOIResult:
    """Run sequential HOOI on a sparse tensor.

    Parameters
    ----------
    tensor:
        The sparse input tensor ``X``.
    ranks:
        Per-mode decomposition ranks ``R_1, ..., R_N`` (a scalar is broadcast).
    options:
        :class:`HOOIOptions`; defaults match the paper (5 iterations, random
        init, Lanczos TRSVD, float64).
    callback:
        Optional ``callback(iteration, fit)`` invoked after each tracked
        iteration.
    workspace:
        Optional :class:`repro.engine.workspace.WorkspacePool` shared across
        runs (one is created per run otherwise).
    cancel_check:
        Optional zero-argument callable invoked at every mode boundary of
        every sweep; raise from it to abort the run cooperatively, or return
        truthy to stop *gracefully* at the next sweep boundary (the run ends
        with a partial result and ``termination="cancelled"``).  Backend
        resources are released through the engine's ``finalize`` hook either
        way.
    checkpoint:
        Optional :class:`repro.resilience.Checkpointer` overriding the one
        built from ``options.checkpoint_dir`` / ``checkpoint_interval``.
        When either is active, every configured sweep boundary atomically
        snapshots the run's full resumable state.
    resume:
        Resume a checkpointed run instead of starting from sweep 0: a
        :class:`repro.resilience.CheckpointState`, a checkpoint file path,
        or ``"auto"`` (load ``options.checkpoint_dir``'s rolling checkpoint
        when present, start fresh otherwise).  The resumed run reproduces
        the uninterrupted one's remaining sweeps; structural or numeric
        option mismatches are rejected with an actionable error.
    """
    from repro.engine.backend import resolve_ttmc_backend
    from repro.engine.driver import HOOIEngine

    options = (options or HOOIOptions()).validate(context="single-node")
    engine = HOOIEngine(
        tensor,
        ranks,
        options,
        backend=resolve_ttmc_backend(options),
        workspace=workspace,
    )
    return engine.run(
        callback=callback,
        cancel_check=cancel_check,
        checkpoint=checkpoint,
        resume=resume,
    )


def hooi_iteration_stats(result: HOOIResult) -> Dict[str, float]:
    """Per-iteration average of the timed phases (seconds), for reporting."""
    iters = max(result.iterations, 1)
    return {key: value / iters for key, value in result.timings.totals.items()}
