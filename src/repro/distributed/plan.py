"""Distribution plans for the distributed HOOI (Algorithm 4 setup).

Given a :class:`~repro.partition.strategies.TensorPartition`, this module
precomputes — once, outside the HOOI iterations — everything a rank needs:

* its local nonzeros (``X^k``) and, per mode, the update lists of the rows
  its TTMc computes (``K_n``: the owned rows in coarse grain, the local
  ``J_n`` in fine grain) — the symbolic data of Algorithm 4, lines 1-2;
* the rows it owns in each mode (``I_n^k``) and the rows its local tensor
  touches (``J_n`` of the local tensor);
* the factor-row exchange plan of each mode (who sends which rows of ``U_n``
  to whom after the mode's TRSVD — Algorithm 4, line 14);
* the fold/scatter plans of the fine-grain TRSVD (which partial ``y`` entries
  are sent to the row owner in the MxV, and back before the MTxV).

Plans are built centrally (the full tensor is available in this simulated
setting) but contain only per-rank information, mirroring what a real MPI
implementation would precompute during its symbolic phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import ModeSymbolic, symbolic_ttmc
from repro.core.ttmc import restrict_symbolic
from repro.partition.strategies import TensorPartition
from repro.util.validation import check_rank_vector

__all__ = ["ExchangePlan", "ModePlan", "RankPlan", "GlobalPlan", "build_plans"]


@dataclass
class ExchangePlan:
    """Point-to-point exchange: row indices to send to / receive from each peer."""

    send: Dict[int, np.ndarray] = field(default_factory=dict)
    receive: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def send_volume_rows(self) -> int:
        return int(sum(v.shape[0] for v in self.send.values()))

    @property
    def receive_volume_rows(self) -> int:
        return int(sum(v.shape[0] for v in self.receive.values()))


@dataclass
class ModePlan:
    """Per-mode information of one rank's plan.

    Exchange-plan direction convention: ``receive[peer]`` holds rows this rank
    *needs* whose owner is ``peer``; ``send[peer]`` holds rows this rank *owns*
    that ``peer`` needs.  The same plan therefore serves (a) the factor-row
    exchange after the TRSVD (owners push fresh ``U_n`` rows along ``send``),
    (b) the fine-grain MxV fold (contributors push partial ``y`` entries along
    ``receive``, i.e. towards the owner) and (c) the scatter of summed ``y``
    values back to contributors before the MTxV (along ``send`` again).
    """

    mode: int
    owned_rows: np.ndarray            # rows of U_n / Y_(n) owned by this rank
    owned_nonempty_rows: np.ndarray   # owned rows that are non-empty globally
    compute_rows: np.ndarray          # rows the local TTMc produces (K_n)
    local_rows: np.ndarray            # rows touched by the local tensor (J_n)
    factor_exchange: ExchangePlan     # U_n rows after TRSVD (line 14)
    fold: ExchangePlan                # partial y entries -> row owners (fine MxV)
    trsvd_rows: int                   # rows this rank multiplies in MxV/MTxV


@dataclass
class RankPlan:
    """Everything rank ``k`` needs to execute Algorithm 4."""

    rank: int
    num_ranks: int
    kind: str                          # 'fine' or 'coarse'
    shape: Tuple[int, ...]
    ranks_requested: Tuple[int, ...]   # decomposition ranks R_1..R_N
    local_positions: np.ndarray        # positions into the global nonzero list
    local_tensor: SparseTensor         # the rank's X^k (global index space)
    symbolic: Dict[int, ModeSymbolic]  # per mode: update lists of K_n in X^k
    modes: List[ModePlan]

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def ttmc_nonzeros(self) -> List[int]:
        """Per-mode ``W_TTMc``: the nonzeros the mode's local TTMc reads."""
        return [self.symbolic[mode].nnz for mode in range(self.order)]


@dataclass
class GlobalPlan:
    """Data shared by all ranks (computed once at setup)."""

    shape: Tuple[int, ...]
    ranks_requested: Tuple[int, ...]
    norm_x: float
    num_ranks: int
    kind: str
    strategy: str
    nonempty_rows: List[np.ndarray]    # per-mode global J_n


def _exchange_from_pairs(
    needed_by_rank: List[np.ndarray],
    row_owner: np.ndarray,
    num_ranks: int,
) -> List[ExchangePlan]:
    """Build per-rank exchange plans from "rank k needs rows needed_by_rank[k]".

    The owner of a needed row sends it to the requester (unless requester ==
    owner).  Returns one :class:`ExchangePlan` per rank with both directions
    filled in.
    """
    plans = [ExchangePlan() for _ in range(num_ranks)]
    for requester in range(num_ranks):
        rows = needed_by_rank[requester]
        if rows.size == 0:
            continue
        owners = row_owner[rows]
        foreign = owners != requester
        rows_f = rows[foreign]
        owners_f = owners[foreign]
        if rows_f.size == 0:
            continue
        order = np.argsort(owners_f, kind="stable")
        rows_f = rows_f[order]
        owners_f = owners_f[order]
        boundaries = np.flatnonzero(
            np.concatenate(([True], owners_f[1:] != owners_f[:-1]))
        )
        ends = np.concatenate([boundaries[1:], [owners_f.shape[0]]])
        for b, e in zip(boundaries, ends):
            owner = int(owners_f[b])
            segment = rows_f[b:e]
            plans[requester].receive[owner] = segment
            plans[owner].send.setdefault(requester, segment)
    return plans


def build_plans(
    tensor: SparseTensor,
    partition: TensorPartition,
    ranks: Sequence[int] | int,
) -> Tuple[GlobalPlan, List[RankPlan]]:
    """Build the global plan and one :class:`RankPlan` per rank."""
    ranks = check_rank_vector(ranks, tensor.shape)
    num_ranks = partition.num_parts
    order = tensor.order

    nonempty = [tensor.nonempty_rows(mode) for mode in range(order)]
    global_plan = GlobalPlan(
        shape=tensor.shape,
        ranks_requested=ranks,
        norm_x=tensor.norm(),
        num_ranks=num_ranks,
        kind=partition.kind,
        strategy=partition.strategy,
        nonempty_rows=nonempty,
    )

    # Local nonzero sets and local tensors.
    local_positions = [
        partition.local_nonzero_positions(tensor, rank) for rank in range(num_ranks)
    ]
    local_tensors = [tensor.select_nonzeros(pos) for pos in local_positions]
    rank_symbolics: List[Dict[int, ModeSymbolic]] = [{} for _ in range(num_ranks)]
    rank_mode_plans: List[List[ModePlan]] = [[] for _ in range(num_ranks)]

    for mode in range(order):
        row_owner = partition.row_owner[mode]
        owned_rows = [
            np.flatnonzero(row_owner == rank).astype(np.int64)
            for rank in range(num_ranks)
        ]
        local_rows = [
            local_tensors[rank].nonempty_rows(mode) for rank in range(num_ranks)
        ]
        if partition.kind == "coarse":
            compute_rows = owned_rows
        else:
            compute_rows = local_rows

        # Factor-row exchange (line 14): after the mode's TRSVD every rank
        # needs the fresh U_n rows its *local tensor* references.
        factor_plans = _exchange_from_pairs(local_rows, row_owner, num_ranks)

        # Fine-grain TRSVD fold: partial y entries for local rows that are not
        # owned travel to the owner (and back before the MTxV).  Coarse-grain
        # local rows are exactly the owned rows, so these plans are empty.
        if partition.kind == "fine":
            fold_plans = _exchange_from_pairs(local_rows, row_owner, num_ranks)
        else:
            fold_plans = [ExchangePlan() for _ in range(num_ranks)]

        for rank in range(num_ranks):
            owned_nonempty = np.intersect1d(
                owned_rows[rank], nonempty[mode], assume_unique=True
            )
            symbolic = symbolic_ttmc(local_tensors[rank], mode)
            if partition.kind == "coarse":
                # Only the owned slices' update lists: K_n ∩ local J_n.
                symbolic = restrict_symbolic(
                    symbolic, np.flatnonzero(row_owner[symbolic.rows] == rank)
                )
            rank_symbolics[rank][mode] = symbolic
            rank_mode_plans[rank].append(
                ModePlan(
                    mode=mode,
                    owned_rows=owned_rows[rank],
                    owned_nonempty_rows=owned_nonempty,
                    compute_rows=compute_rows[rank],
                    local_rows=local_rows[rank],
                    factor_exchange=factor_plans[rank],
                    fold=fold_plans[rank],
                    trsvd_rows=int(owned_nonempty.shape[0])
                    if partition.kind == "coarse"
                    else int(local_rows[rank].shape[0]),
                )
            )

    plans = [
        RankPlan(
            rank=rank,
            num_ranks=num_ranks,
            kind=partition.kind,
            shape=tensor.shape,
            ranks_requested=ranks,
            local_positions=local_positions[rank],
            local_tensor=local_tensors[rank],
            symbolic=rank_symbolics[rank],
            modes=rank_mode_plans[rank],
        )
        for rank in range(num_ranks)
    ]
    return global_plan, plans
