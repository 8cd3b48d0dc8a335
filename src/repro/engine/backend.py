"""Execution backends for the unified HOOI engine.

The engine (:mod:`repro.engine.driver`) owns the *iteration state machine* —
init, symbolic reuse, the per-mode sweep, core formation, fit tracking and
convergence.  What varies between the sequential, shared-memory and
distributed drivers is only *how* the three heavy steps are executed:

* the numeric TTMc of a mode (``compute_ttmc``),
* the truncated SVD refreshing that mode's factor (``update_factor``),
* the core-tensor formation from the last mode's TTMc (``form_core``),

plus where the tensor norm comes from and how the initial factors are
produced.  :class:`ExecutionBackend` is that seam.  ``compute_ttmc`` returns
the rows ``ttmc_rows`` names (a plan's non-empty rows ``J_n``); the TRSVD
runs on that block, the new factor is zero outside ``J_n`` and the core is
``U_N[J_N]ᵀ · block``.  The engine calls the
hooks in a fixed order; backends may keep per-run state (symbolic data,
communicators, clocks) between calls.

Call order per run::

    prepare_tensor -> initial_factors -> prepare ->
    [ on_iteration_start ->
        ( on_mode_start -> compute_ttmc -> update_factor -> on_mode_end )*N ->
        form_core -> on_iteration_end ]* -> (fit/convergence in the engine)
    -> finalize   (always once prepare starts, success or failure)

Every single-node TTMc composition is one :class:`PlanBackend`: a *work
plan* (:mod:`repro.engine.plans` — COO rows, CSF root-fiber slabs or
dimension-tree edges) times a *dispatcher* that runs the plan's lock-free
range body inline (:class:`InlineDispatcher`, the paper's Algorithm 1/3
without ``parfor``), on a thread team (:class:`ThreadDispatcher`,
Algorithm 3) or on a crew of worker processes over zero-copy shared memory
(:class:`ProcessDispatcher` — true multicore, GIL-free).
:func:`resolve_ttmc_backend` picks the plan from ``(tensor_format,
ttmc_strategy)`` and the dispatcher from ``execution``, independently;
:func:`crew_pays` then keeps plans too small to outweigh the crew's
hand-off cost off the worker processes (they run inline instead).  The
distributed per-rank backend lives in :mod:`repro.distributed.dist_hooi`
next to the plan/exchange machinery it drives; a rank's TTMc is a
:class:`PlanBackend` whose plan the rank builds once, over the nonzeros of
the rows it computes.  The MET baseline provides a TTM-chain backend —
all drivers share this one loop.

A process run whose crew pays also solves each large Lanczos TRSVD on the
crew's workers, split by rows (:meth:`ProcessDispatcher.trsvd`, from
:data:`CREW_TRSVD_MIN_ELEMENTS`, on x86-64 hosts with no CPU to spare
beside the crew); every other TRSVD runs on the driver.
"""

from __future__ import annotations

import functools
import platform
from typing import List, Optional, Tuple

import numpy as np

from repro.core.hosvd import initialize_factors
from repro.core.kron import kron_row_length
from repro.core.sparse_tensor import SparseTensor
from repro.core.trsvd import TRSVDResult, truncated_svd
from repro.core.ttmc import ttmc_flops
from repro.core.tucker import core_from_ttmc
from repro.engine.dimtree import DimensionTree
from repro.engine.plans import COORowsPlan, CSFSlabPlan, TTMcPlan
from repro.parallel import blas, crew_trsvd
from repro.parallel.process_pool import PROCESS_CREW, HOOIProcessPool, ProcessConfig
from repro.util.linalg import complete_basis

__all__ = [
    "CREW_BREAK_EVEN_FLOPS",
    "CREW_TRSVD_MIN_ELEMENTS",
    "ExecutionBackend",
    "PlanBackend",
    "InlineDispatcher",
    "ThreadDispatcher",
    "ProcessDispatcher",
    "crew_pays",
    "resolve_plan",
    "resolve_ttmc_backend",
    "trsvd_kwargs",
]

#: Per-sweep TTMc work (Σ_n ``ttmc_flops``) from which a process job rides
#: the worker crew; below it the job runs inline (:func:`crew_pays`).
#: Measured on 2 vCPUs with planted 3-mode tensors (ranks 6 and 8, COO and
#: CSF, ``gram``, 6 sweeps, median sweep of 5 alternating repeats), a
#: persistent 2-worker crew against inline execution:
#:
#: * crew overhead — the crew's extra time per sweep on 1.5k–6k nonzero
#:   plans, where the kernels cost almost nothing — 5.6–9.6 ms, median
#:   8.2 ms;
#: * inline cost — sweep time over W_TTMc on 24k–384k nonzero plans —
#:   0.72–1.11 ns per flop, median 0.95 ns;
#: * two pure-Python processes ran 1.24–1.89× faster than one, so the host
#:   gave the crew one to two cores, and the crew never won (1.01–4.4× the
#:   inline sweep time).
#:
#: With two real cores a crew halves the inline time at best, so it pays
#: above overhead ÷ (½ × inline seconds per flop) = 8.2 ms ÷ 0.47 ns
#: ≈ 17M flops per sweep.
CREW_BREAK_EVEN_FLOPS = 17_000_000

#: Size of a ``|J_n| × W`` block (``|J_n| · W`` elements) from which a
#: process run's Lanczos TRSVD is split by rows over the crew's workers
#: (:meth:`ProcessDispatcher.trsvd`); smaller blocks are solved on the
#: driver.  Measured on 2 vCPUs, one OpenBLAS thread on the driver and on
#: each of 2 ranks, on the second sweep's blocks of the Delicious (scale
#: 1e-3, rank 5) and NELL (scale 2e-3, ranks (10, 8, 10)) analogs; split /
#: driver time, medians of 8 split and 5 driver solves, 3 processes each:
#:
#: * 11,784 × 125, 6,293 × 80 and 2,399 × 125: 0.55–0.65;
#: * 1,275 × 80 (102k elements): 1.1–1.6; 531 × 125 (66k): 1.25–1.3;
#: * the 7-row blocks: 2–6 (a rank task's dispatch alone costs 0.3–0.5 ms).
#:
#: The split pays between 10^5 and 3·10^5 elements; 2^18 lies between.
#: A host with a usable CPU beyond the crew's would run the driver's solve
#: on more BLAS threads (``blas.threads_beside``), so there the split is
#: not used at all.
CREW_TRSVD_MIN_ELEMENTS = 1 << 18


def trsvd_kwargs(options) -> dict:
    """Solver keyword arguments implied by :class:`HOOIOptions`.

    The Lanczos solver takes the tolerance and seed; the Gram path takes no
    knobs.
    """
    if options.trsvd_method == "lanczos":
        return {"tol": options.trsvd_tol, "seed": options.seed}
    return {}


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
    def ttmc_rows(self, eng, mode: int) -> Optional[np.ndarray]:
        """The sorted rows :meth:`compute_ttmc` returns; ``None`` for all."""
        return None

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        """Numeric TTMc of ``mode``: the :meth:`ttmc_rows` of ``Y_(mode)``."""
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
        return self.factor_from(eng, mode, result.left), result

    def factor_from(self, eng, mode: int, left: np.ndarray) -> np.ndarray:
        """``U_mode`` from the TRSVD's left vectors over :meth:`ttmc_rows`.

        Zero outside those rows; a mode with fewer rows than its rank gets
        unit-vector columns on its lowest empty rows.
        """
        rows = self.ttmc_rows(eng, mode)
        if rows is None:
            return np.asarray(left, dtype=eng.dtype)
        factor = np.zeros((eng.shape[mode], eng.ranks[mode]), dtype=eng.dtype)
        factor[rows, : left.shape[1]] = left
        return complete_basis(factor, rows)

    def notify_factor_updated(self, eng, mode: int) -> None:
        """A factor was replaced *outside* :meth:`update_factor`.

        Backends caching state derived from the factors (the dimension
        tree's memoized partial chains) invalidate it here.  The distributed
        per-rank backend calls this after its distributed TRSVD + factor-row
        exchange replaced ``U_mode``, since the rank-local TTMc backend never
        sees that update otherwise.
        """

    def form_core(self, eng, last_ttmc: np.ndarray) -> np.ndarray:
        """Fold the last mode's TTMc into the core: ``U_N[J_N]ᵀ · block``."""
        rows = self.ttmc_rows(eng, eng.order - 1)
        last = eng.factors[-1] if rows is None else np.take(eng.factors[-1], rows, 0)
        return core_from_ttmc(last_ttmc, last, eng.ranks)

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
        """Release per-run resources (called exactly once, success or not).

        A :meth:`prepare` that raised is finalized too, so release only
        what it got to acquire.
        """
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

    def ttmc(self, plan: TTMcPlan, mode: int, factors, workspace=None):
        """The compact ``Y_(mode)`` block of ``plan`` with ``factors``."""
        plan.factors = factors
        return plan.ttmc(
            mode, lambda key: self.run(plan, key, workspace), workspace=workspace
        )

    def compute(self, eng, plan: TTMcPlan, mode: int) -> np.ndarray:
        """The engine's ``Y_(mode)`` block, in its pooled buffers."""
        return self.ttmc(plan, mode, eng.factors, eng.workspace)

    def trsvd(self, eng, mode: int, y_mat: np.ndarray) -> Optional[TRSVDResult]:
        """The TRSVD of ``y_mat`` off the driver, or ``None``: the driver solves it."""
        return None

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

    def __init__(self, num_threads: int = 1) -> None:
        if int(num_threads) < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.width = int(num_threads)

    def run(self, plan: TTMcPlan, key, workspace=None) -> None:
        from repro.parallel.parallel_for import parallel_for

        parallel_for(functools.partial(plan.body, key), plan.items(key), self.width)


class ProcessDispatcher(InlineDispatcher):
    """Runs a packed plan as ``make_chunks`` ranges on a worker crew.

    :meth:`open` packs the plan into a one-plan
    :class:`~repro.parallel.process_pool.HOOIProcessPool` generation and
    writes the engine's factors into it; per-mode TTMc runs through
    ``pool.ttmc(mode)``, refreshed factors are broadcast through
    ``pool.write_factor`` and :meth:`close` tears the generation down.
    With ``crew`` (the service's :class:`~repro.parallel.process_pool.
    PersistentWorkerCrew`) the generation runs on those workers at the
    crew's width.  Without, it borrows the process's crew of
    ``num_workers`` (:data:`~repro.parallel.process_pool.PROCESS_CREW`,
    spawned by the process's first crew run and replaced when dead or of
    another width), or spawns a private crew and closes it when that one
    is lent to another run.  A borrowed crew stays alive for the next run.

    A Lanczos TRSVD of a block of at least :data:`CREW_TRSVD_MIN_ELEMENTS`
    elements runs on min(workers, usable CPUs) of the crew's workers, split
    by rows (:meth:`trsvd`), where that was measured to pay: on x86-64
    (:data:`~repro.parallel.crew_trsvd.ORDERED_MACHINES`, whose store order
    the ranks' barrier relies on), with no usable CPU left for a second
    driver BLAS thread beside the crew.  A smaller block, a ``gram`` solve,
    a single usable CPU or any other host keeps it on the driver, and a run
    none of whose modes splits packs no segment for it.  A split solve's
    sums depend on its rank count at rounding level, like any parallel
    reduction.
    """

    name = "process"

    def __init__(self, num_workers: int = 1, *, crew=None) -> None:
        self.width = crew.num_workers if crew is not None else int(num_workers)
        self.crew = crew
        self.pool = None
        self._split_ranks: List[int] = []
        self._borrowed = False

    def open(self, eng, plan: TTMcPlan) -> None:
        crew = self.crew
        if crew is None:
            crew = PROCESS_CREW.lend(self.width)
            self._borrowed = crew is not None
        self._split_ranks = [
            self._ranks_for(eng, plan, mode) for mode in range(eng.order)
        ]
        self.pool = HOOIProcessPool(
            plan, config=ProcessConfig(num_workers=self.width), crew=crew,
            split_trsvd=any(self._split_ranks),
        )
        for mode, factor in enumerate(eng.factors):
            self.pool.write_factor(mode, factor)

    def _ranks_for(self, eng, plan: TTMcPlan, mode: int) -> int:
        """Ranks that solve ``mode``'s TRSVD; 0 when the driver does."""
        rows = plan.rows(mode).shape[0]
        width = kron_row_length([r for m, r in enumerate(eng.ranks) if m != mode])
        count = min(self.width, blas.usable_cpus(), rows)
        if (
            eng.options.trsvd_method != "lanczos"
            or rows * width < CREW_TRSVD_MIN_ELEMENTS
            or count < 2
            or platform.machine() not in crew_trsvd.ORDERED_MACHINES
            or blas.threads_beside(self.width) != 1
        ):
            return 0
        return count

    def compute(self, eng, plan: TTMcPlan, mode: int) -> np.ndarray:
        return self.pool.ttmc(mode)

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:
        self.pool.write_factor(mode, factor)

    def trsvd(self, eng, mode: int, y_mat: np.ndarray) -> Optional[TRSVDResult]:
        """A large Lanczos TRSVD split over the crew, else ``None``.

        ``y_mat`` is the block :meth:`compute` returned: the generation's
        shared ``out{mode}`` segment, which the ranks read.  Which modes
        split, and on how many ranks, :meth:`open` decided.
        """
        count = self._split_ranks[mode]
        if not count:
            return None
        return self.pool.trsvd(
            mode, eng.ranks[mode], count, **trsvd_kwargs(eng.options)
        )

    def close(self) -> None:
        try:
            if self.pool is not None:
                self.pool.close()
                self.pool = None
        finally:
            if self._borrowed:
                self._borrowed = False
                PROCESS_CREW.give_back()


class PlanBackend(ExecutionBackend):
    """The single-node TTMc backend: a work plan × a dispatcher.

    ``plan`` is a plan class (built in :meth:`prepare` over the engine's
    dtype-cast tensor, with the dispatcher's width overlapping the
    symbolic step) or an already built plan (a preset memory-mapped tree
    set, a distributed rank's plan over the rows it computes).
    ``dispatcher`` defaults to inline execution.  ``pool`` is the process
    dispatcher's live generation (``None`` otherwise).

    A run whose dispatcher has width ``w > 1`` keeps the driver's OpenBLAS
    at ``max(1, usable CPUs − w)`` threads from :meth:`prepare` until
    :meth:`finalize` (:func:`repro.parallel.blas.limit_beside`), so no
    spinning BLAS helper takes a core from the threads or workers.
    """

    def __init__(self, plan=COORowsPlan, dispatcher=None) -> None:
        self.plan_source = plan
        self.dispatcher = dispatcher or InlineDispatcher()
        self.plan: Optional[TTMcPlan] = None
        self._blas_limited = False

    @property
    def name(self) -> str:
        return f"{self.plan_source.kind}/{self.dispatcher.name}"

    @property
    def pool(self):
        return self.dispatcher.pool

    def prepare(self, eng) -> None:
        dispatcher = self.dispatcher
        if isinstance(dispatcher, ProcessDispatcher) and not crew_pays(
            eng.tensor.nnz, eng.ranks
        ):
            # Too little work to pay for a crew: spawn nothing, pack no
            # arena, and run exactly the sequential sweep.
            self.dispatcher = InlineDispatcher()
        if self.dispatcher.width > 1:
            blas.limit_beside(self.dispatcher.width)
            self._blas_limited = True
        source = self.plan_source
        self.plan = (
            source
            if isinstance(source, TTMcPlan)
            else source.build(eng.tensor, eng.ranks, eng.options, self.dispatcher.width)
        )
        self.dispatcher.open(eng, self.plan)

    def ttmc_rows(self, eng, mode: int) -> Optional[np.ndarray]:
        rows = self.plan.rows(mode)
        return None if rows.shape[0] == eng.shape[mode] else rows

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        return self.dispatcher.compute(eng, self.plan, mode)

    def update_factor(self, eng, mode: int, y_mat: np.ndarray):
        stats = self.dispatcher.trsvd(eng, mode, y_mat)
        if stats is None:
            new_factor, stats = super().update_factor(eng, mode, y_mat)
        else:
            new_factor = self.factor_from(eng, mode, stats.left)
        self.dispatcher.factor_updated(mode, new_factor)
        self.notify_factor_updated(eng, mode)
        return new_factor, stats

    def notify_factor_updated(self, eng, mode: int) -> None:
        if self.plan is not None:
            self.plan.factor_updated(mode)

    def finalize(self, eng) -> None:
        try:
            self.dispatcher.close()
        finally:
            if self._blas_limited:
                self._blas_limited = False
                blas.release_limit()


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


def crew_pays(nnz: int, ranks) -> bool:
    """Whether a plan's TTMc work is worth handing to the worker crew.

    The work is the paper's per-sweep ``W_TTMc``, Σ_n
    :func:`~repro.core.ttmc.ttmc_flops` over the tensor's nonzeros and
    ranks, compared with :data:`CREW_BREAK_EVEN_FLOPS` (read at call time).
    :meth:`PlanBackend.prepare` runs a process dispatcher inline below it,
    and the service keeps small process jobs off its crew
    (:func:`repro.serving.executor.pooled_eligible`).
    """
    work = sum(ttmc_flops(nnz, ranks, mode) for mode in range(len(ranks)))
    return work >= CREW_BREAK_EVEN_FLOPS


def resolve_ttmc_backend(options, *, crew=None) -> PlanBackend:
    """Backend implied by ``ttmc_strategy``, ``tensor_format`` and ``execution``.

    The plan comes from ``(tensor_format, ttmc_strategy)``
    (:func:`resolve_plan`) and the dispatcher, independently, from
    ``execution`` with ``options.num_workers`` threads or worker
    processes.  A width of one runs inline: no threads, processes or
    shared memory.  A process run given ``crew`` (a
    :class:`~repro.parallel.process_pool.PersistentWorkerCrew`) runs on
    those workers at their width, however many, instead; without one it
    borrows the process's crew of ``num_workers`` workers
    (:class:`ProcessDispatcher`), and only once :func:`crew_pays` says
    its work is worth a crew.  Either way a width above one limits the
    driver's BLAS threads for the run (:class:`PlanBackend`).  The
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
        if crew is not None or width > 1:
            return PlanBackend(plan, ProcessDispatcher(width, crew=crew))
    elif execution == "thread" and width > 1:
        return PlanBackend(plan, ThreadDispatcher(width))
    return PlanBackend(plan)
