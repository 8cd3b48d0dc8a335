"""Execution backends for the unified HOOI engine.

The engine (:mod:`repro.engine.driver`) owns the *iteration state machine* —
init, symbolic reuse, the per-mode sweep, core formation, fit tracking and
convergence.  What varies between the sequential, shared-memory and
distributed drivers is only *how* the three heavy steps are executed:

* the numeric TTMc of a mode (``compute_ttmc``),
* the truncated SVD refreshing that mode's factor (``update_factor``),
* the core-tensor formation from the last mode's TTMc (``form_core``),

plus where the tensor norm comes from and how the initial factors are
produced.  :class:`ExecutionBackend` is that seam.  The engine calls the
hooks in a fixed order; backends may keep per-run state (symbolic data,
communicators, clocks) between calls.

Call order per run::

    prepare_tensor -> initial_factors -> prepare ->
    [ on_iteration_start ->
        ( on_mode_start -> compute_ttmc -> update_factor -> on_mode_end )*N ->
        form_core -> on_iteration_end ]* -> (fit/convergence in the engine)
    -> finalize   (always, success or failure)

Every single-node TTMc composition is one :class:`PlanBackend`: a *work
plan* (:mod:`repro.engine.plans` — COO rows, CSF root-fiber slabs or
dimension-tree edges) times a *dispatcher* that runs the plan's lock-free
range body inline (:class:`InlineDispatcher`, the paper's Algorithm 1/3
without ``parfor``), on a thread team (:class:`ThreadDispatcher`,
Algorithm 3) or on a crew of worker processes over zero-copy shared memory
(:class:`ProcessDispatcher` — true multicore, GIL-free).
:func:`resolve_ttmc_backend` picks the plan from ``(tensor_format,
ttmc_strategy)`` and the dispatcher from ``execution``, independently.  The
distributed per-rank backend lives in :mod:`repro.distributed.dist_hooi`
next to the plan/exchange machinery it drives, and the baselines provide
TTM-chain (MET) and dense (Gram) backends — all drivers share this one loop.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

import numpy as np

from repro.core.hosvd import initialize_factors
from repro.core.kron import kron_row_length
from repro.core.sparse_tensor import SparseTensor
from repro.core.trsvd import TRSVDResult, truncated_svd
from repro.core.tucker import core_from_ttmc
from repro.engine.dimtree import DimensionTree
from repro.engine.plans import COORowsPlan, CSFSlabPlan, TTMcPlan

__all__ = [
    "ExecutionBackend",
    "PlanBackend",
    "InlineDispatcher",
    "ThreadDispatcher",
    "ProcessDispatcher",
    "pooled_out",
    "resolve_plan",
    "resolve_ttmc_backend",
    "trsvd_kwargs",
]


def trsvd_kwargs(options) -> dict:
    """Solver keyword arguments implied by :class:`HOOIOptions`.

    The Lanczos solver takes the tolerance and seed; the Gram path takes no
    knobs.
    """
    if options.trsvd_method == "lanczos":
        return {"tol": options.trsvd_tol, "seed": options.seed}
    return {}


def pooled_out(eng, mode: int) -> np.ndarray:
    """The engine's pooled ``(I_n, ∏R_t)`` output buffer for mode ``mode``.

    Buffers are keyed per mode and fully zeroed only on their first use
    in a run; afterwards the range bodies overwrite just the ``|J_n|``
    touched rows, so steady-state sweeps never memset the full ``I_n × W``
    matrix — measurable on hypersparse modes.  The per-run set of primed
    buffers lives on the engine (``eng._primed_ttmc_out``), which
    :meth:`HOOIEngine.run` resets.
    """
    width = kron_row_length(
        [eng.factors[t].shape[1] for t in range(eng.order) if t != mode]
    )
    buffer = eng.workspace.take(
        (eng.tensor.shape[mode], width), eng.dtype, tag=f"ttmc-out-{mode}"
    )
    key = (mode, buffer.shape, buffer.dtype)
    if key not in eng._primed_ttmc_out:
        buffer[...] = 0
        eng._primed_ttmc_out.add(key)
    return buffer


class ExecutionBackend:
    """How one HOOI engine run executes its heavy steps.

    The base class supplies the dtype cast, the norm, the initializer, the
    TRSVD factor update and the core GEMM; subclasses provide the TTMc
    (:meth:`compute_ttmc`) and may use the no-op iteration/mode hooks to
    maintain clocks or communication statistics.
    """

    name = "base"

    # -- setup ----------------------------------------------------------- #
    def prepare_tensor(self, eng) -> None:
        """Apply the engine's dtype policy to the input tensor."""
        if isinstance(eng.tensor, SparseTensor):
            eng.tensor = eng.tensor.astype(eng.dtype)

    def tensor_norm(self, eng) -> float:
        """Frobenius norm of the full input tensor."""
        return eng.tensor.norm()

    def initial_factors(self, eng) -> List[np.ndarray]:
        """Produce the initial factor matrices (cast to dtype by the engine)."""
        return initialize_factors(
            eng.tensor, eng.ranks, init=eng.options.init, seed=eng.options.seed
        )

    def prepare(self, eng) -> None:
        """Build per-run reusable state (symbolic data, trees, worker pools)."""

    # -- the three heavy steps ------------------------------------------- #
    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        """Numeric TTMc of ``mode``: the matricized ``Y_(mode)``."""
        raise NotImplementedError

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        """Compact TTMc block: ``Y_(mode)`` restricted to the given rows.

        ``rows`` is a sorted array of global mode-``mode`` indices; the
        result has shape ``(len(rows), ∏_{t≠mode} R_t)`` with row ``p``
        holding ``Y_(mode)(rows[p], :)`` (zero for a row without local
        nonzeros).  This is the rank-scoped seam the distributed driver
        composes with: each simulated MPI rank computes only its owned/local
        rows through whatever plan and dispatcher the options select.
        """
        raise NotImplementedError

    def update_factor(
        self, eng, mode: int, y_mat: np.ndarray
    ) -> Tuple[np.ndarray, Optional[TRSVDResult]]:
        """Refresh ``U_mode`` from ``Y_(mode)`` via the configured TRSVD."""
        result = truncated_svd(
            y_mat,
            eng.ranks[mode],
            method=eng.options.trsvd_method,
            **trsvd_kwargs(eng.options),
        )
        return np.asarray(result.left, dtype=eng.dtype), result

    def notify_factor_updated(self, eng, mode: int) -> None:
        """A factor was replaced *outside* :meth:`update_factor`.

        Backends caching state derived from the factors (the dimension
        tree's memoized partial chains) invalidate it here.  The distributed
        per-rank backend calls this after its distributed TRSVD + factor-row
        exchange replaced ``U_mode``, since the rank-local TTMc backend never
        sees that update otherwise.
        """

    def form_core(self, eng, last_ttmc: np.ndarray) -> np.ndarray:
        """Fold the last mode's TTMc into the core tensor (one small GEMM)."""
        return core_from_ttmc(last_ttmc, eng.factors[-1], eng.ranks)

    # -- hooks (no-ops by default) --------------------------------------- #
    def on_iteration_start(self, eng, iteration: int) -> None:
        pass

    def on_iteration_end(self, eng, iteration: int) -> None:
        pass

    def on_mode_start(self, eng, mode: int) -> None:
        pass

    def on_mode_end(self, eng, mode: int) -> None:
        pass

    def finalize(self, eng) -> None:
        """Release per-run resources (called exactly once, success or not)."""
        pass


class InlineDispatcher:
    """Runs a key's whole item range as one body call on the driver thread.

    The only dispatcher whose bodies get the engine's workspace pool (it is
    not thread-safe), so steady-state inline sweeps allocate nothing.
    """

    name = "inline"
    width = 1
    pool = None

    def run(self, plan: TTMcPlan, key, workspace=None) -> None:
        """Execute every item of ``key``."""
        num_items = plan.items(key)
        if num_items:
            plan.body(key, 0, num_items, workspace)

    def open(self, eng, plan: TTMcPlan) -> None:
        """Per-run setup once the plan is built (nothing in-process)."""

    def ttmc(self, plan: TTMcPlan, mode: int, factors, out=None, workspace=None):
        """``Y_(mode)`` of ``plan`` with ``factors`` (into ``out`` if given)."""
        plan.factors = factors
        return plan.ttmc(
            mode, lambda key: self.run(plan, key, workspace),
            out=out, workspace=workspace,
        )

    def compute(self, eng, plan: TTMcPlan, mode: int) -> np.ndarray:
        """The engine's ``Y_(mode)``, into its pooled buffer."""
        return self.ttmc(
            plan, mode, eng.factors, pooled_out(eng, mode), eng.workspace
        )

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:
        """``U_mode`` was refreshed (in-process plans read it directly)."""

    def close(self) -> None:
        """Release per-run resources (nothing in-process)."""


class ThreadDispatcher(InlineDispatcher):
    """Runs a key's items as ``make_chunks`` ranges on a thread team.

    Ranges write disjoint output rows, so the loop is lock-free; bodies
    allocate privately because the workspace pool is not thread-safe.
    """

    name = "thread"

    def __init__(self, config=None) -> None:
        from repro.parallel.parallel_for import ParallelConfig

        self.config = config or ParallelConfig()
        self.width = self.config.num_threads

    def run(self, plan: TTMcPlan, key, workspace=None) -> None:
        from repro.parallel.parallel_for import parallel_for

        parallel_for(functools.partial(plan.body, key), plan.items(key), self.config)


class ProcessDispatcher(InlineDispatcher):
    """Runs packed plans as ``make_chunks`` ranges on a worker crew.

    Without ``pool`` it owns a one-shot generation: :meth:`open` packs the
    plan with :meth:`~repro.parallel.process_pool.HOOIProcessPool.for_plans`
    (spawning a private crew) and :meth:`close` tears it down.  With
    ``pool`` and ``job`` it is attached to a generation someone else owns —
    a serving batch — and leaves it open.  Either way :meth:`open` writes
    the engine's factors into the generation, per-mode TTMc runs through
    ``pool.ttmc(mode, job=)`` and refreshed factors are broadcast through
    ``pool.write_factor``.  Plans outside the generation (a distributed row
    subset) run inline.
    """

    name = "process"

    def __init__(self, config=None, *, pool=None, job=None) -> None:
        from repro.parallel.process_pool import ProcessConfig

        self.config = config or ProcessConfig()
        self.width = self.config.num_workers
        self.pool = pool
        self.job = job
        self._owns_pool = pool is None

    def open(self, eng, plan: TTMcPlan) -> None:
        if self._owns_pool:
            from repro.parallel.process_pool import HOOIProcessPool

            self.pool = HOOIProcessPool.for_plans({None: plan}, config=self.config)
        for mode, factor in enumerate(eng.factors):
            self.pool.write_factor(mode, factor, job=self.job)

    def compute(self, eng, plan: TTMcPlan, mode: int) -> np.ndarray:
        return self.pool.ttmc(mode, job=self.job)

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:
        self.pool.write_factor(mode, factor, job=self.job)

    def close(self) -> None:
        if self._owns_pool and self.pool is not None:
            self.pool.close()
            self.pool = None


class PlanBackend(ExecutionBackend):
    """The single-node TTMc backend: a work plan × a dispatcher.

    ``plan`` is a plan class (built in :meth:`prepare` over the engine's
    dtype-cast tensor, with the dispatcher's width overlapping the
    symbolic step) or an already built plan (a preset memory-mapped tree
    set, a rank's seeded symbolic data, a serving batch member).
    ``dispatcher`` defaults to inline execution.  ``pool`` is the process
    dispatcher's live generation (``None`` otherwise).
    """

    def __init__(self, plan=COORowsPlan, dispatcher=None) -> None:
        self.plan_source = plan
        self.dispatcher = dispatcher or InlineDispatcher()
        self.plan: Optional[TTMcPlan] = None

    @property
    def name(self) -> str:
        return f"{self.plan_source.kind}/{self.dispatcher.name}"

    @property
    def pool(self):
        return self.dispatcher.pool

    def prepare(self, eng) -> None:
        source = self.plan_source
        self.plan = (
            source
            if isinstance(source, TTMcPlan)
            else source.build(eng.tensor, eng.ranks, eng.options, self.dispatcher.width)
        )
        self.dispatcher.open(eng, self.plan)

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        return self.dispatcher.compute(eng, self.plan, mode)

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        """Compact row block; COO plans compute just these rows.

        Fiber-tree plans have no cheaper form than their full ``Y_(n)``, so
        the rows are gathered from it into a pooled block (rows without
        local nonzeros are zero there).
        """
        rows = np.asarray(rows, dtype=np.int64)
        sub = self.plan.restrict(mode, rows, eng.factors)
        if sub is not None:
            self.dispatcher.run(sub, mode, eng.workspace)
            return sub.outs[mode]
        full = self.compute_ttmc(eng, mode)
        out = eng.workspace.take(
            (rows.shape[0], full.shape[1]), full.dtype, tag=f"ttmc-rows-{mode}"
        )
        return np.take(full, rows, axis=0, out=out)

    def update_factor(self, eng, mode: int, y_mat: np.ndarray):
        new_factor, stats = super().update_factor(eng, mode, y_mat)
        self.dispatcher.factor_updated(mode, new_factor)
        self.notify_factor_updated(eng, mode)
        return new_factor, stats

    def notify_factor_updated(self, eng, mode: int) -> None:
        if self.plan is not None:
            self.plan.factor_updated(mode)

    def finalize(self, eng) -> None:
        self.dispatcher.close()


def resolve_plan(options):
    """The plan class implied by ``(tensor_format, ttmc_strategy)``.

    The dimension tree for ``"dimtree"`` (whose symbolic source follows
    ``tensor_format``), CSF root-fiber slabs for ``"csf"``, COO rows
    otherwise.
    """
    if (options.ttmc_strategy or "per-mode") == "dimtree":
        return DimensionTree
    if (options.tensor_format or "coo") == "csf":
        return CSFSlabPlan
    return COORowsPlan


def resolve_ttmc_backend(options, config=None) -> PlanBackend:
    """Backend implied by ``ttmc_strategy``, ``tensor_format`` and ``execution``.

    The plan comes from ``(tensor_format, ttmc_strategy)``
    (:func:`resolve_plan`) and the dispatcher, independently, from
    ``execution`` with ``options.num_workers`` threads or worker
    processes; ``config`` (a
    :class:`~repro.parallel.parallel_for.ParallelConfig`, passed by the
    threaded driver) supplies the thread count and schedule instead.  A
    width of one runs inline: no threads, processes or shared memory.  The
    ``kernel`` axis needs no routing — plans read ``options.kernel`` — and
    the ``validate`` call here rejects unavailable or non-composing tiers
    before anything is built.  Option values and composition are checked by
    :meth:`~repro.core.hooi.HOOIOptions.validate` (single-node context; the
    distributed driver applies its stricter rules before resolving its
    rank-local backends).
    """
    options.validate()
    plan = resolve_plan(options)
    execution = options.execution or "sequential"
    width = int(options.num_workers or 1)
    if execution == "process":
        from repro.parallel.process_pool import ProcessConfig

        if width <= 1 and config is not None:
            width = config.num_threads
        if width > 1:
            return PlanBackend(plan, ProcessDispatcher(ProcessConfig(
                num_workers=width,
                schedule=config.schedule if config is not None else "dynamic",
                chunk_size=config.chunk_size if config is not None else None,
            )))
    elif execution == "thread" or config is not None:
        from repro.parallel.parallel_for import ParallelConfig

        config = config or ParallelConfig(num_threads=width)
        if config.num_threads > 1:
            return PlanBackend(plan, ThreadDispatcher(config))
    return PlanBackend(plan)
