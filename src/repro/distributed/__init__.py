"""Distributed-memory parallel HOOI (coarse- and fine-grain, Algorithm 4)."""

from repro.distributed.plan import (
    ExchangePlan,
    GlobalPlan,
    ModePlan,
    RankPlan,
    build_plans,
)
from repro.distributed.dist_trsvd import DistributedTTMcMatrix
from repro.distributed.factor_exchange import exchange_factor_rows
from repro.distributed.dist_hooi import (
    DistributedHOOIResult,
    RankRunResult,
    distributed_hooi,
    hooi_rank_program,
)
from repro.distributed.performance import (
    ModeStatistics,
    PartitionStatistics,
    collect_partition_statistics,
    estimate_iteration_time,
)

__all__ = [
    "ExchangePlan",
    "GlobalPlan",
    "ModePlan",
    "RankPlan",
    "build_plans",
    "DistributedTTMcMatrix",
    "exchange_factor_rows",
    "DistributedHOOIResult",
    "RankRunResult",
    "distributed_hooi",
    "hooi_rank_program",
    "ModeStatistics",
    "PartitionStatistics",
    "collect_partition_statistics",
    "estimate_iteration_time",
]
