"""Shared-memory execution substrates (the paper's Algorithm 3) and the node model.

Two shared-memory execution substrates live here, both running a work
plan's lock-free range body (:mod:`repro.engine.plans`) over the same
dynamic ``make_chunks`` chunks: worker *threads*
(:mod:`repro.parallel.parallel_for`, GIL-bound — faithful work
decomposition) and a crew of worker *processes* over zero-copy shared
memory (:mod:`repro.parallel.process_pool` + :mod:`repro.parallel.shm` —
true multicore execution).  The engine's dispatchers
(:mod:`repro.engine.backend`) choose between them, so Algorithm 3 is
``decompose(tensor, ranks, execution="thread", num_workers=T)``.  The node
roofline model (:mod:`repro.parallel.model`, :mod:`repro.parallel.work`)
prices each phase for the Table V experiment.
"""

from repro.parallel.parallel_for import make_chunks, parallel_for
from repro.parallel.shm import ShmArena, ShmArraySpec, ShmView
from repro.parallel.process_pool import (
    HOOIProcessPool,
    ProcessConfig,
    WorkerCrashError,
)
from repro.parallel.model import BGQ_NODE, NodeModel, PhaseWork
from repro.parallel.work import (
    core_phase_work,
    kron_width,
    trsvd_phase_work,
    trsvd_row_work,
    ttmc_phase_work,
)

__all__ = [
    "make_chunks",
    "parallel_for",
    "ShmArena",
    "ShmArraySpec",
    "ShmView",
    "HOOIProcessPool",
    "ProcessConfig",
    "WorkerCrashError",
    "BGQ_NODE",
    "NodeModel",
    "PhaseWork",
    "core_phase_work",
    "kron_width",
    "trsvd_phase_work",
    "trsvd_row_work",
    "ttmc_phase_work",
]
