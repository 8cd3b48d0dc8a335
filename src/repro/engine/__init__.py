"""The unified HOOI execution engine.

One driver loop (:class:`~repro.engine.driver.HOOIEngine`), one TTMc backend
built from a work plan (:mod:`repro.engine.plans`,
:mod:`repro.engine.dimtree`) and a dispatcher (:mod:`repro.engine.backend`),
pooled workspaces (:mod:`repro.engine.workspace`) and the
``float32``/``float64`` dtype policy shared by the sequential, shared-memory
and distributed HOOI drivers.
"""

from repro.engine.backend import (
    ExecutionBackend,
    InlineDispatcher,
    PlanBackend,
    ProcessDispatcher,
    ThreadDispatcher,
    resolve_ttmc_backend,
    trsvd_kwargs,
)
from repro.engine.dimtree import DimensionTree, DimTreeNode
from repro.engine.driver import HOOIEngine, hooi_fit
from repro.engine.plans import (
    COORowsPlan,
    CSFSlabPlan,
    TTMcPlan,
    parallel_symbolic,
)
from repro.engine.workspace import WorkspacePool

__all__ = [
    "ExecutionBackend",
    "PlanBackend",
    "InlineDispatcher",
    "ThreadDispatcher",
    "ProcessDispatcher",
    "TTMcPlan",
    "COORowsPlan",
    "CSFSlabPlan",
    "parallel_symbolic",
    "trsvd_kwargs",
    "DimensionTree",
    "DimTreeNode",
    "resolve_ttmc_backend",
    "HOOIEngine",
    "hooi_fit",
    "WorkspacePool",
]
