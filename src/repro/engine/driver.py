"""The unified HOOI driver loop.

Every HOOI variant in this repository — sequential (Algorithm 1/3 minus the
``parfor``), shared-memory (Algorithm 3), the distributed per-rank program
(Algorithm 4), and the MET baseline — iterates the same state machine:

1. initialize the factor matrices;
2. build reusable per-run state (the symbolic TTMc data) once;
3. per iteration and per mode: numeric TTMc of the non-empty rows ``J_n``
   of the matricized ``Y_(n)`` (a compact ``|J_n| × W`` block), then a
   truncated SVD of that block refreshing ``U_n``, zero outside ``J_n``;
4. after the last mode, fold the ``Y_(N)`` block into the core tensor
   (``U_N[J_N]ᵀ · block``);
5. track the fit ``1 - ||X - X̂|| / ||X||`` and stop when its improvement
   falls below the tolerance.

:class:`HOOIEngine` implements that loop exactly once.  *How* each heavy step
runs is delegated to an :class:`~repro.engine.backend.ExecutionBackend` —
for every single-node TTMc composition the one
:class:`~repro.engine.backend.PlanBackend`, a work plan × a dispatcher;
*where* the driver thread's big buffers come from is delegated to a
:class:`~repro.engine.workspace.WorkspacePool` (the ``(|J_n| × ∏R_t)`` TTMc
blocks, CSF level buffers and dimension-tree payloads are reused across
modes and iterations); and *what precision* everything computes in is the
engine's dtype policy (``HOOIOptions.dtype``, ``float32`` or ``float64``,
threaded through ``SparseTensor → kron → ttmc → trsvd``).  Ranks enter here
and are checked once: every ``R_n`` must fit the ``∏_{t≠n} R_t`` columns of
``Y_(n)``.

The public drivers (:func:`repro.core.hooi.hooi`, whose ``execution``
option selects sequential, thread or process dispatch, and
:func:`repro.distributed.dist_hooi.distributed_hooi`) are thin configuration
wrappers over this class.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, List, Optional

import numpy as np

from repro.core.hooi import HOOIOptions, HOOIResult
from repro.core.sparse_tensor import resolve_dtype
from repro.core.trsvd import TRSVDResult
from repro.core.tucker import TuckerTensor, fit_from_core
from repro.engine.backend import ExecutionBackend, PlanBackend
from repro.engine.workspace import WorkspacePool
from repro.util.timing import TimingBreakdown
from repro.util.validation import check_rank_feasibility, check_rank_vector

__all__ = ["HOOIEngine"]


class HOOIEngine:
    """One HOOI run: tensor + ranks + options + backend + workspace.

    Backends receive the engine instance in every hook and read/write its
    public state: ``tensor``, ``shape``, ``ranks``, ``order``, ``options``,
    ``dtype``, ``factors``, ``workspace``, ``timings``.  After :meth:`run`,
    ``iteration_seconds`` holds the measured wall time of each iteration's
    sweep + core phases (what the scaling experiments report).
    """

    def __init__(
        self,
        tensor,
        ranks,
        options: Optional[HOOIOptions] = None,
        *,
        backend: Optional[ExecutionBackend] = None,
        workspace: Optional[WorkspacePool] = None,
    ) -> None:
        self.options = options or HOOIOptions()
        self.backend = backend or PlanBackend()
        self.dtype = resolve_dtype(self.options.dtype)
        self.tensor = tensor
        self.shape = tuple(int(s) for s in tensor.shape)
        self.order = len(self.shape)
        self.ranks = check_rank_feasibility(check_rank_vector(ranks, self.shape))
        self.workspace = workspace or WorkspacePool()
        self.timings = TimingBreakdown()
        self.factors: Optional[List[np.ndarray]] = None
        self.iteration_seconds: List[float] = []

    def run(
        self,
        *,
        callback: Optional[Callable[[int, float], None]] = None,
        cancel_check: Optional[Callable[[], None]] = None,
        checkpoint=None,
        resume=None,
    ) -> HOOIResult:
        """Execute the HOOI state machine and return the packaged result.

        ``cancel_check`` is the cooperative-cancellation seam the serving
        layer uses: when given, it is invoked at the start of every mode of
        every sweep (never while a parallel dispatch is in flight) and may
        raise to abort the run.  The exception propagates to the caller
        unchanged, and ``finalize`` still releases the backend's per-run
        resources — a cancelled process-backend run tears down (or, on the
        serving crew, detaches) its shared segments exactly like a completed
        one.  Additionally, a *truthy return* from ``cancel_check`` at a
        sweep boundary stops the run gracefully: the completed sweeps are
        packaged into a partial result with ``termination="cancelled"``.

        ``checkpoint`` is a :class:`repro.resilience.Checkpointer` (built
        from ``options.checkpoint_dir`` when omitted) invoked after every
        configured sweep; ``resume`` is a
        :class:`~repro.resilience.checkpoint.CheckpointState` (or a path /
        ``"auto"``) whose factors, fit history and sweep counter replace the
        fresh start.  Resume state is installed *before* ``backend.prepare``
        on purpose: a process-dispatched backend writes ``eng.factors`` into
        its shared generation during ``prepare``, so the workers must see
        the checkpointed factors, not the initializer's.
        """
        from repro.resilience.checkpoint import (
            Checkpointer,
            check_resume_compatible,
            resolve_resume,
            restore_rng_state,
        )

        backend = self.backend
        options = self.options
        timings = self.timings

        if checkpoint is None and getattr(options, "checkpoint_dir", None):
            checkpoint = Checkpointer(
                options.checkpoint_dir,
                interval=getattr(options, "checkpoint_interval", 1),
            )

        backend.prepare_tensor(self)
        with timings.time("init"):
            self.factors = [
                np.asarray(f, dtype=self.dtype)
                for f in backend.initial_factors(self)
            ]
        resume_state = resolve_resume(resume, checkpoint)
        if resume_state is not None:
            check_resume_compatible(resume_state, self)
            self.factors = [
                np.ascontiguousarray(f, dtype=self.dtype)
                for f in resume_state.factors
            ]
            restore_rng_state(resume_state.rng_state)
        try:
            with timings.time("symbolic"):
                backend.prepare(self)
            return self._run_iterations(
                callback=callback,
                cancel_check=cancel_check,
                checkpoint=checkpoint,
                resume_state=resume_state,
            )
        finally:
            # Per-run resources (the process backend's generation and
            # borrowed crew, the driver's BLAS thread limit) are released
            # whether the run succeeded or not, a failed prepare included.
            backend.finalize(self)

    def _run_iterations(
        self,
        *,
        callback: Optional[Callable[[int, float], None]] = None,
        cancel_check: Optional[Callable[[], None]] = None,
        checkpoint=None,
        resume_state=None,
    ) -> HOOIResult:
        """The iteration state machine (factored out so run() can finalize)."""
        options = self.options
        backend = self.backend
        timings = self.timings

        norm_x = backend.tensor_norm(self)
        fit_history: List[float] = []
        trsvd_stats: List[TRSVDResult] = []
        converged = False
        core = np.zeros(self.ranks, dtype=self.dtype)
        resumed_sweeps = 0
        if resume_state is not None:
            # A resumed run continues the checkpointed one: its core and fit
            # history are real completed-sweep state, and the loop starts
            # where the interrupted run stopped.
            core = np.asarray(resume_state.core, dtype=self.dtype)
            fit_history = list(resume_state.fit_history)
            resumed_sweeps = int(resume_state.completed_sweeps)
        iterations_run = resumed_sweeps
        termination = "resumed" if resumed_sweeps > 0 else "max_iters"

        for iteration in range(resumed_sweeps, options.max_iterations):
            if cancel_check is not None and cancel_check():
                # A truthy return (as opposed to a raise) requests a graceful
                # stop: keep the completed sweeps as a partial result.
                termination = "cancelled"
                break
            iterations_run = iteration + 1
            termination = "max_iters"
            backend.on_iteration_start(self, iteration)
            sweep_start = time.perf_counter()
            last_ttmc: Optional[np.ndarray] = None

            for mode in range(self.order):
                if cancel_check is not None:
                    cancel_check()
                backend.on_mode_start(self, mode)
                with timings.time("ttmc"):
                    y_mat = backend.compute_ttmc(self, mode)
                with timings.time("trsvd"):
                    new_factor, stats = backend.update_factor(self, mode, y_mat)
                self.factors[mode] = new_factor
                if stats is not None:
                    # Counters and singular values only: the vectors would
                    # make every result (and every served reply) ~8x larger.
                    trsvd_stats.append(replace(stats, left=None, right=None))
                backend.on_mode_end(self, mode)
                if mode == self.order - 1:
                    last_ttmc = y_mat

            with timings.time("core"):
                core = backend.form_core(self, last_ttmc)
            self.iteration_seconds.append(time.perf_counter() - sweep_start)
            backend.on_iteration_end(self, iteration)

            with timings.time("fit"):
                fit = fit_from_core(norm_x, core)
            fit_history.append(fit)
            if callback is not None:
                callback(iteration, fit)
            if checkpoint is not None:
                # Snapshot strictly after the sweep's state is complete (core
                # formed, fit recorded) and before the convergence decision,
                # so the rolling checkpoint always embodies whole sweeps.
                with timings.time("checkpoint"):
                    checkpoint.on_sweep(self, iteration + 1, core, fit_history)
            if len(fit_history) >= 2:
                improvement = fit_history[-1] - fit_history[-2]
                if abs(improvement) < options.tolerance:
                    converged = True
                    termination = "converged"
                    break

        if not fit_history:
            # A graceful cancel before the first sweep: record the fit of the
            # (all-zero) core so HOOIResult.fit is populated on every result.
            with timings.time("fit"):
                fit_history.append(fit_from_core(norm_x, core))

        decomposition = TuckerTensor(core=core, factors=list(self.factors))
        return HOOIResult(
            decomposition=decomposition,
            fit_history=fit_history,
            iterations=iterations_run,
            converged=converged,
            timings=timings,
            trsvd_stats=trsvd_stats,
            completed_sweeps=iterations_run,
            termination=termination,
            resumed_sweeps=resumed_sweeps,
        )
