"""Analytic per-iteration performance estimation for a partition.

Running the SPMD simulation with hundreds of ranks (threads) is unnecessarily
slow when all the strong-scaling experiment needs is the *time model* applied
to per-rank work and communication volumes — all of which are fully determined
by the tensor and the partition.  This module computes, without executing the
numerics:

* per-rank TTMc work, TRSVD rows and point-to-point communication volumes for
  every mode (exactly the quantities of the paper's Table III);
* a modelled time per HOOI iteration for a given machine model (the paper's
  Table II), combining the slowest rank's compute time per phase with the α–β
  cost of its communication.

The same plans drive the real SPMD execution, so the estimator and the
simulation agree on the work/volume numbers by construction; tests cross-check
them on small configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.sparse_tensor import SparseTensor
from repro.distributed.plan import GlobalPlan, RankPlan, build_plans
from repro.parallel.work import (
    core_phase_work,
    kron_width,
    trsvd_phase_work,
    ttmc_phase_work,
)
from repro.partition.strategies import TensorPartition
from repro.simmpi.machine import BGQ_MACHINE, MachineModel
from repro.util.validation import check_rank_vector

__all__ = ["ModeStatistics", "PartitionStatistics", "estimate_iteration_time",
           "collect_partition_statistics"]

_BYTES = 8


@dataclass
class ModeStatistics:
    """Per-mode, per-rank work and communication statistics."""

    mode: int
    ttmc_work: np.ndarray          # contributions (nonzeros processed) per rank
    trsvd_rows: np.ndarray         # rows multiplied in MxV/MTxV per rank
    comm_volume: np.ndarray        # point-to-point doubles sent+received per rank

    def max_avg(self, field: str) -> Dict[str, float]:
        values = getattr(self, field)
        return {"max": float(values.max()), "avg": float(values.mean())}


@dataclass
class PartitionStatistics:
    """All per-mode statistics of a partition (the paper's Table III rows)."""

    strategy: str
    num_ranks: int
    modes: List[ModeStatistics]


def collect_partition_statistics(
    tensor: SparseTensor,
    partition: TensorPartition,
    ranks: Sequence[int] | int,
    *,
    trsvd_solver_iterations: int = 1,
    plans: Optional[List[RankPlan]] = None,
    global_plan: Optional[GlobalPlan] = None,
) -> PartitionStatistics:
    """Compute per-mode W_TTMc, W_TRSVD and communication volume per rank.

    The communication volume counts, per rank and mode, the factor rows it
    sends plus receives (``R_n`` doubles per row, line 14 of Algorithm 4) and,
    for fine-grain partitions, the folded/scattered ``y`` entries of the
    TRSVD (2 doubles per cut row per solver iteration, Section III-B.2).
    """
    ranks = check_rank_vector(ranks, tensor.shape)
    if plans is None or global_plan is None:
        global_plan, plans = build_plans(tensor, partition, ranks)
    num_ranks = partition.num_parts
    mode_stats: List[ModeStatistics] = []
    for mode in range(tensor.order):
        ttmc_work = np.zeros(num_ranks, dtype=np.int64)
        trsvd_rows = np.zeros(num_ranks, dtype=np.int64)
        comm = np.zeros(num_ranks, dtype=np.float64)
        for plan in plans:
            mp = plan.modes[mode]
            ttmc_work[plan.rank] = plan.ttmc_nonzeros[mode]
            trsvd_rows[plan.rank] = mp.trsvd_rows
            factor_rows = mp.factor_exchange.send_volume_rows + \
                mp.factor_exchange.receive_volume_rows
            fold_rows = mp.fold.send_volume_rows + mp.fold.receive_volume_rows
            comm[plan.rank] = (
                factor_rows * ranks[mode]
                + 2.0 * fold_rows * trsvd_solver_iterations
            )
        mode_stats.append(
            ModeStatistics(
                mode=mode,
                ttmc_work=ttmc_work,
                trsvd_rows=trsvd_rows,
                comm_volume=comm,
            )
        )
    return PartitionStatistics(
        strategy=partition.strategy, num_ranks=num_ranks, modes=mode_stats
    )


def estimate_iteration_time(
    tensor: SparseTensor,
    partition: TensorPartition,
    ranks: Sequence[int] | int,
    *,
    machine: MachineModel = BGQ_MACHINE,
    trsvd_solver_iterations: int = 1,
    lanczos_vectors: Optional[int] = None,
    statistics: Optional[PartitionStatistics] = None,
) -> float:
    """Modelled time of one HOOI iteration for the given partition.

    Per mode the model takes the slowest rank's TTMc roofline time, the
    slowest rank's TRSVD roofline time (proportional to the rows it
    multiplies), the α–β cost of its point-to-point traffic and the
    collective cost of the TRSVD's per-step allreduce; the core-tensor GEMM
    and its allreduce close the iteration.  Load imbalance therefore shows up
    exactly the way the paper describes: through the max-per-rank terms.
    """
    ranks = check_rank_vector(ranks, tensor.shape)
    if statistics is None:
        statistics = collect_partition_statistics(
            tensor, partition, ranks,
            trsvd_solver_iterations=trsvd_solver_iterations,
        )
    num_ranks = partition.num_parts
    order = tensor.order
    total = 0.0
    for mode in range(order):
        stats = statistics.modes[mode]
        width = kron_width(ranks, mode)
        if lanczos_vectors is None:
            steps_per_restart = 2 * int(ranks[mode]) + 4
        else:
            steps_per_restart = int(lanczos_vectors)
        solver_steps = max(trsvd_solver_iterations, 1) * steps_per_restart

        # Slowest rank's local compute.
        ttmc_time = machine.compute_time(
            ttmc_phase_work(int(stats.ttmc_work.max()), order, ranks, mode)
        )
        trsvd_time = machine.compute_time(
            trsvd_phase_work(
                int(stats.trsvd_rows.max()), ranks, mode,
                solver_iterations=trsvd_solver_iterations,
                lanczos_vectors=steps_per_restart,
            )
        )
        # Slowest rank's point-to-point traffic (α per peer message is folded
        # into an average message size of the factor-row exchange).
        max_volume_bytes = float(stats.comm_volume.max()) * _BYTES
        p2p_time = machine.message_time(max_volume_bytes) if max_volume_bytes else 0.0
        # One allreduce of the short x vector per Lanczos step (MTxV), plus the
        # small dot-product allreduces (folded into the same term).
        allreduce_time = solver_steps * machine.collective_time(
            "allreduce", width * _BYTES, num_ranks
        )
        total += ttmc_time + trsvd_time + p2p_time + allreduce_time

    # Core tensor: local GEMM on the slowest rank plus an allreduce of G.
    last_rows = statistics.modes[order - 1].trsvd_rows
    core_time = machine.compute_time(
        core_phase_work(int(last_rows.max()), ranks)
    )
    core_width = int(np.prod(ranks))
    total += core_time + machine.collective_time(
        "allreduce", core_width * _BYTES, num_ranks
    )
    return total
