"""Distributed-memory parallel HOOI (Algorithm 4 of the paper).

The same SPMD program implements both task grains; the only differences are
the rows each rank's TTMc produces (owned rows for coarse grain, the local
``J_n`` for fine grain — line 4 vs line 6 of Algorithm 4) and whether the
TRSVD has to fold partial results (fine grain only).  Per iteration and mode:

1. local numeric TTMc over the rank's update lists (lines 9-12);
2. distributed matrix-free TRSVD of the (row- or sum-distributed) ``Y_(n)``
   (line 13);
3. point-to-point exchange of the updated ``U_n`` rows (line 14);

and once per iteration the core tensor is formed from the last mode's TTMc
with a local GEMM followed by an all-reduce (lines 15-16), from which every
rank evaluates the fit.

The per-rank iteration loop is the engine's
(:class:`repro.engine.driver.HOOIEngine`); :class:`DistributedBackend` plugs
the rank-local TTMc, the communication-aware TRSVD + factor exchange and the
all-reduced core formation into its hook points, and additionally keeps the
per-rank work / communication / simulated-time statistics that the paper's
Tables II-IV report.  The driver :func:`distributed_hooi` builds the plans,
runs the SPMD program on the simulated MPI world, checks that all ranks
agree, and packages the results.

Each rank builds its TTMc plan once, before the iterations, over the rows
it computes (``K_n``; Algorithm 4, lines 1-2): the COO update lists and the
CSF trees of mode ``n`` hold only the nonzeros of ``K_n``'s rows, and every
sweep runs the plan's ordinary TTMc — the path the single-node drivers run,
COO streams included.

**Hybrid ranks** (the paper's headline configuration, Table V on top of
Algorithm 4): each rank's local TTMc phase runs through the same
rank-scoped backend composition the single-node drivers use
(:func:`repro.engine.backend.resolve_ttmc_backend`), so
``HOOIOptions(execution="thread", num_workers=T)`` nests a ``T``-thread
worker team inside every simulated rank (the row-disjoint lock-free
decomposition of the plan's items) and ``ttmc_strategy="dimtree"`` builds
one rank-local dimension tree over the rank's nonzeros.  Its leaves hold
every local row, so in coarse grain the rank keeps ``K_n``'s rows of each
leaf block.  Execution strategy changes local compute only: results
match the sequential-rank run to 1e-10 and the communication statistics are
byte-identical.  ``execution="process"`` is rejected — one worker-process
pool per simulated rank would oversubscribe the node
(:meth:`~repro.core.hooi.HOOIOptions.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dense import fold
from repro.core.hooi import HOOIOptions
from repro.core.hosvd import initialize_factors
from repro.core.sparse_tensor import SparseTensor
from repro.core.trsvd import lanczos_svd
from repro.core.tucker import TuckerTensor
from repro.distributed.dist_trsvd import DistributedTTMcMatrix
from repro.distributed.factor_exchange import exchange_factor_rows
from repro.distributed.plan import GlobalPlan, RankPlan, build_plans
from repro.engine.backend import ExecutionBackend, PlanBackend
from repro.engine.driver import HOOIEngine
from repro.parallel.work import core_phase_work, ttmc_phase_work
from repro.partition.strategies import TensorPartition
from repro.simmpi.communicator import Communicator
from repro.simmpi.launcher import run_spmd
from repro.simmpi.machine import BGQ_MACHINE, MachineModel
from repro.util.linalg import complete_basis
from repro.util.validation import check_rank_feasibility, check_rank_vector

__all__ = [
    "RankRunResult",
    "DistributedHOOIResult",
    "DistributedBackend",
    "distributed_hooi",
    "hooi_rank_program",
]


@dataclass
class RankRunResult:
    """Per-rank outcome of the SPMD HOOI program."""

    rank: int
    fit_history: List[float]
    core: np.ndarray
    owned_factor_rows: List[Tuple[np.ndarray, np.ndarray]]   # (rows, values) per mode
    iteration_sim_times: List[float]          # simulated seconds per iteration
    iteration_wall_times: List[float]         # measured seconds per iteration
    phase_sim_times: Dict[str, float]         # simulated breakdown (ttmc/trsvd/...)
    per_mode_comm_bytes: List[int]            # cumulative traffic charged per mode
    ttmc_work: List[int]                      # W_TTMc per mode (contributions)
    trsvd_rows: List[int]                     # W_TRSVD per mode (rows multiplied)
    trsvd_iterations: List[int]               # restart counts observed
    iterations: int = 0                       # iterations executed by the engine
    converged: bool = False                   # engine convergence decision
    comm_stats: Optional[Dict[str, int]] = None   # CommStats.snapshot() per rank


@dataclass
class DistributedHOOIResult:
    """Driver-level result: assembled decomposition + per-rank statistics."""

    decomposition: TuckerTensor
    fit_history: List[float]
    iterations: int
    converged: bool
    rank_results: List[RankRunResult]
    strategy: str
    num_ranks: int
    simulated_time_per_iteration: float
    wall_time_per_iteration: float

    @property
    def fit(self) -> float:
        """Final fit; raises on an empty history (see ``HOOIResult.fit``)."""
        if not self.fit_history:
            raise ValueError(
                "fit_history is empty: the distributed run did not complete "
                "an iteration (a completed run records a fit every sweep)"
            )
        return self.fit_history[-1]

    def comm_volume_elements(self) -> np.ndarray:
        """Per-rank total communication volume in doubles (all iterations)."""
        return np.array(
            [sum(r.per_mode_comm_bytes) / 8.0 for r in self.rank_results]
        )

    def phase_fractions(self) -> Dict[str, float]:
        """Average simulated share of TTMc / TRSVD / core time (Table IV)."""
        totals: Dict[str, float] = {}
        for r in self.rank_results:
            for key, value in r.phase_sim_times.items():
                totals[key] = totals.get(key, 0.0) + value
        grand = sum(totals.values())
        if grand <= 0:
            return {k: 0.0 for k in totals}
        return {k: v / grand for k, v in totals.items()}


class DistributedBackend(ExecutionBackend):
    """Per-rank execution of Algorithm 4 behind the engine's hook points.

    Besides executing the three heavy steps with the plan's communication
    schedules, the backend advances the rank's simulated clock through the
    machine model and accumulates the per-phase / per-mode statistics the
    experiment tables report.

    The local TTMc phase is delegated to a *rank-scoped* single-node backend
    (``resolve_ttmc_backend(options)`` with its plan built once over the
    rank's local tensor and the rows it computes), so
    ``execution="thread"`` and ``ttmc_strategy="dimtree"`` compose with both
    task grains exactly as on the single-node drivers — the paper's hybrid
    MPI+threads configuration.  With ``execution="thread"`` the simulated
    clock charges compute phases at ``num_workers`` threads through the node
    roofline model (Table V's per-thread model) instead of the machine's
    default ``threads_per_rank``.
    """

    name = "distributed"

    def __init__(
        self,
        comm: Communicator,
        plan: RankPlan,
        global_plan: GlobalPlan,
        initial_factors: List[np.ndarray],
    ) -> None:
        self.comm = comm
        self.plan = plan
        self.global_plan = global_plan
        self._initial_factors = initial_factors
        # Per-rank statistics accumulated through the hooks (wall-clock
        # iteration times come from the engine's own ``iteration_seconds``).
        self.iteration_sim_times: List[float] = []
        self.phase_sim: Dict[str, float] = {"ttmc": 0.0, "trsvd": 0.0, "core": 0.0}
        self.per_mode_comm: List[int] = [0] * plan.order
        self.trsvd_iteration_counts: List[int] = []
        self.local_backend: Optional[PlanBackend] = None
        self._model_threads: Optional[int] = None
        # Per mode: K_n ∩ local J_n, the rows of the block compute_ttmc
        # returns, and their positions in the plan's rows (None: all of them).
        self.compute_block_rows: List[np.ndarray] = []
        self._row_positions: List[Optional[np.ndarray]] = []
        self._mode_comm_before = 0
        self._iter_clock_start = 0.0

    # -- setup ----------------------------------------------------------- #
    def tensor_norm(self, eng) -> float:
        return self.global_plan.norm_x

    def initial_factors(self, eng) -> List[np.ndarray]:
        return [np.array(f, copy=True) for f in self._initial_factors]

    def prepare(self, eng) -> None:
        from repro.engine.backend import resolve_ttmc_backend
        from repro.engine.plans import COORowsPlan, CSFSlabPlan
        from repro.sparse import CSFTensorSet

        # Fail fast when the backend is driven directly (the driver already
        # checks before launching the SPMD world).
        eng.options.validate(context="distributed")
        execution = eng.options.execution or "sequential"
        # Thread-level work items feed the Table V per-thread roofline: a
        # hybrid rank charges its compute phases at its own thread count.
        self._model_threads = (
            int(eng.options.num_workers) if execution == "thread" else None
        )
        # Rank-scoped backend: the composition the single-node drivers
        # resolve, its plan built here over the rank's local tensor
        # (``eng.tensor`` *is* ``plan.local_tensor``, dtype-cast).  The COO
        # update lists and the CSF tree of mode n hold only the nonzeros of
        # K_n's rows; a dimension tree is one tree over the local tensor.
        backend = resolve_ttmc_backend(eng.options)
        symbolic = self.plan.symbolic
        kernel = eng.options.kernel
        if backend.plan_source is COORowsPlan:
            backend.plan_source = COORowsPlan(eng.tensor, symbolic, kernel=kernel)
        elif backend.plan_source is CSFSlabPlan:
            trees = CSFTensorSet.per_mode(
                eng.tensor, num_threads=backend.dispatcher.width,
                subsets={mode: sym.perm for mode, sym in symbolic.items()},
            )
            backend.plan_source = CSFSlabPlan(trees, kernel=kernel)
        # Set first: a prepare that raises is finalized through it.
        self.local_backend = backend
        backend.prepare(eng)
        # Rows each mode's local TTMc produces (line 4 vs 6 of Algorithm 4):
        # K_n ∩ local J_n, since a row without local nonzeros contributes
        # nothing.  Only a coarse-grain tree's leaves hold more rows.
        self.compute_block_rows = [symbolic[mode].rows for mode in range(eng.order)]
        self._row_positions = []
        for mode, rows in enumerate(self.compute_block_rows):
            have = backend.plan.rows(mode)
            self._row_positions.append(
                None if have.shape == rows.shape else np.searchsorted(have, rows)
            )

    # -- hooks: clocks and communication counters ------------------------ #
    def on_iteration_start(self, eng, iteration: int) -> None:
        self._iter_clock_start = self.comm.clock.now

    def on_iteration_end(self, eng, iteration: int) -> None:
        self.iteration_sim_times.append(self.comm.clock.now - self._iter_clock_start)

    def on_mode_start(self, eng, mode: int) -> None:
        self._mode_comm_before = self.comm.stats.total_bytes

    def on_mode_end(self, eng, mode: int) -> None:
        self.per_mode_comm[mode] += (
            self.comm.stats.total_bytes - self._mode_comm_before
        )

    # -- the three heavy steps ------------------------------------------- #
    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        """Local numeric TTMc over the rank's update lists (lines 9-12).

        The rank-scoped backend's ordinary TTMc of the plan built in
        :meth:`prepare`: the block of ``compute_block_rows[mode]``, taken
        from the leaf block of a coarse-grain dimension tree.
        """
        clock_before = self.comm.clock.now
        block = self.local_backend.compute_ttmc(eng, mode)
        positions = self._row_positions[mode]
        if positions is not None:
            block = np.take(block, positions, axis=0)
        self.comm.advance_compute(
            self.comm.machine.compute_time(
                ttmc_phase_work(
                    self.plan.ttmc_nonzeros[mode], eng.order, eng.ranks, mode
                ),
                threads=self._model_threads,
            ),
            category="ttmc",
        )
        self.phase_sim["ttmc"] += self.comm.clock.now - clock_before
        return block

    def update_factor(self, eng, mode: int, block: np.ndarray):
        """Distributed TRSVD (line 13) + factor-row exchange (line 14)."""
        clock_before = self.comm.clock.now
        mode_plan = self.plan.modes[mode]
        op = DistributedTTMcMatrix(
            self.comm,
            mode_plan,
            self.compute_block_rows[mode],
            block,
            model_threads=self._model_threads,
        )
        trsvd = lanczos_svd(
            op,
            eng.ranks[mode],
            tol=eng.options.trsvd_tol,
            max_restarts=12,
            seed=eng.options.seed if eng.options.seed is not None else 0,
            compute_right=False,
        )
        self.trsvd_iteration_counts.append(trsvd.iterations)

        # Below R_n non-empty rows the solver returns |J_n| columns; the rest
        # stay zero here and distributed_hooi completes the assembled factors.
        new_factor = np.zeros(
            (self.plan.shape[mode], eng.ranks[mode]), dtype=eng.dtype
        )
        got = trsvd.left.shape[1]
        new_factor[mode_plan.owned_nonempty_rows, :got] = trsvd.left
        exchange_factor_rows(self.comm, mode_plan.factor_exchange, new_factor)
        # The rank-local TTMc backend never sees this factor refresh; tell it
        # so cached state (the dimension tree's partial chains) invalidates.
        self.local_backend.notify_factor_updated(eng, mode)
        self.phase_sim["trsvd"] += self.comm.clock.now - clock_before
        return new_factor, None

    def form_core(self, eng, last_block: np.ndarray) -> np.ndarray:
        """Core tensor: local GEMM on ``Y_(N)`` + all-reduce (lines 15-16)."""
        clock_before = self.comm.clock.now
        last_rows = self.compute_block_rows[-1]
        if last_rows.size:
            core_local = eng.factors[-1][last_rows].T @ last_block
        else:
            width = int(np.prod([eng.ranks[t] for t in range(eng.order - 1)]))
            core_local = np.zeros((eng.ranks[-1], width), dtype=eng.dtype)
        self.comm.advance_compute(
            self.comm.machine.compute_time(
                core_phase_work(int(last_rows.size), eng.ranks),
                threads=self._model_threads,
            ),
            category="core",
        )
        core_mat = self.comm.allreduce(core_local)
        core = fold(core_mat, eng.order - 1, eng.ranks)
        self.phase_sim["core"] += self.comm.clock.now - clock_before
        return core

    def finalize(self, eng) -> None:
        if self.local_backend is not None:
            self.local_backend.finalize(eng)


def hooi_rank_program(
    comm: Communicator,
    plans: List[RankPlan],
    global_plan: GlobalPlan,
    initial_factors: List[np.ndarray],
    options: HOOIOptions,
    callback: Optional[Callable[[int, float], None]] = None,
) -> RankRunResult:
    """The SPMD body executed by every simulated rank (Algorithm 4).

    ``callback(iteration, fit)`` fires on rank 0 only (every rank computes
    the identical fit, so one invocation per sweep mirrors the single-node
    drivers).
    """
    plan = plans[comm.rank]
    backend = DistributedBackend(comm, plan, global_plan, initial_factors)
    engine = HOOIEngine(
        plan.local_tensor, plan.ranks_requested, options, backend=backend
    )
    result = engine.run(callback=callback if comm.rank == 0 else None)

    owned_factor_rows = [
        (plan.modes[mode].owned_nonempty_rows,
         engine.factors[mode][plan.modes[mode].owned_nonempty_rows].copy())
        for mode in range(plan.order)
    ]
    return RankRunResult(
        rank=comm.rank,
        fit_history=list(result.fit_history),
        core=result.decomposition.core,
        owned_factor_rows=owned_factor_rows,
        iteration_sim_times=backend.iteration_sim_times,
        iteration_wall_times=list(engine.iteration_seconds),
        phase_sim_times=backend.phase_sim,
        per_mode_comm_bytes=backend.per_mode_comm,
        ttmc_work=list(plan.ttmc_nonzeros),
        trsvd_rows=[mp.trsvd_rows for mp in plan.modes],
        trsvd_iterations=backend.trsvd_iteration_counts,
        iterations=result.iterations,
        converged=result.converged,
        # Full per-rank communication counters (bytes, message counts,
        # collective traffic): execution strategy only changes local
        # compute, so these must be byte-identical across hybrid configs.
        comm_stats=comm.stats.snapshot(),
    )


def distributed_hooi(
    tensor: SparseTensor,
    ranks: Sequence[int] | int,
    partition: TensorPartition,
    options: Optional[HOOIOptions] = None,
    *,
    machine: MachineModel = BGQ_MACHINE,
    callback: Optional[Callable[[int, float], None]] = None,
) -> DistributedHOOIResult:
    """Run Algorithm 4 on the simulated MPI world and assemble the results.

    Option composition is checked by
    :meth:`~repro.core.hooi.HOOIOptions.validate` with the ``"distributed"``
    context: ``execution`` may be ``"sequential"`` or ``"thread"`` (hybrid
    ranks), ``ttmc_strategy`` may be ``"per-mode"`` or ``"dimtree"``
    (rank-local trees), ``trsvd_method`` must be ``"lanczos"``.
    ``callback(iteration, fit)`` is invoked once per sweep (on rank 0),
    exactly as in the single-node drivers.
    """
    options = (options or HOOIOptions()).validate(context="distributed")
    ranks = check_rank_feasibility(check_rank_vector(ranks, tensor.shape))
    global_plan, plans = build_plans(tensor, partition, ranks)
    initial_factors = initialize_factors(
        tensor, ranks, init=options.init, seed=options.seed
    )

    spmd = run_spmd(
        hooi_rank_program,
        partition.num_parts,
        plans,
        global_plan,
        initial_factors,
        options,
        callback,
        machine=machine,
    )
    rank_results: List[RankRunResult] = spmd.values

    # All ranks compute identical fit histories and cores; use rank 0's.
    reference = rank_results[0]
    for rr in rank_results[1:]:
        if not np.allclose(rr.fit_history, reference.fit_history, atol=1e-9):
            raise RuntimeError("ranks disagree on the fit history — SPMD bug")

    # Assemble the factor matrices from the owned rows and complete them.
    factors = [
        np.zeros((tensor.shape[mode], ranks[mode]), dtype=reference.core.dtype)
        for mode in range(tensor.order)
    ]
    for rr in rank_results:
        for mode, (rows, values) in enumerate(rr.owned_factor_rows):
            factors[mode][rows] = values
    for mode, factor in enumerate(factors):
        complete_basis(factor, tensor.nonempty_rows(mode))

    decomposition = TuckerTensor(core=reference.core, factors=factors)
    iterations = reference.iterations
    sim_times = np.array(
        [
            max(rr.iteration_sim_times[i] for rr in rank_results)
            for i in range(iterations)
        ]
    )
    wall_times = np.array(
        [
            max(rr.iteration_wall_times[i] for rr in rank_results)
            for i in range(iterations)
        ]
    )
    return DistributedHOOIResult(
        decomposition=decomposition,
        fit_history=list(reference.fit_history),
        iterations=iterations,
        converged=reference.converged,
        rank_results=rank_results,
        strategy=partition.strategy,
        num_ranks=partition.num_parts,
        simulated_time_per_iteration=float(sim_times.mean()) if sim_times.size else 0.0,
        wall_time_per_iteration=float(wall_times.mean()) if wall_times.size else 0.0,
    )
