"""HyperTensor-py: parallel Tucker decomposition of sparse tensors.

A from-scratch Python reproduction of

    Kaya & Uçar, "High Performance Parallel Algorithms for the Tucker
    Decomposition of Sparse Tensors", ICPP 2016.

The public API is re-exported from the subpackages:

* :mod:`repro.core` — sparse tensors, nonzero-based TTMc, symbolic TTMc,
  matrix-free TRSVD, sequential HOOI.
* :mod:`repro.engine` — the unified HOOI driver loop, pluggable execution
  backends, pooled workspaces and the float32/float64 dtype policy.
* :mod:`repro.parallel` — the thread and worker-process substrates behind
  ``execution="thread"`` (Algorithm 3) and ``"process"``, and the node
  roofline model.
* :mod:`repro.partition` — hypergraph models of the TTMc/TRSVD tasks and a
  multilevel partitioner (PaToH substitute), plus random/block partitioners.
* :mod:`repro.simmpi` — simulated MPI: SPMD communicator, collectives,
  communication accounting and the BG/Q-like machine model.
* :mod:`repro.distributed` — coarse- and fine-grain distributed HOOI,
  Algorithm 4, with the communication-avoiding distributed TRSVD.
* :mod:`repro.baselines` — MET-style TTM-chain HOOI and CP-ALS.
* :mod:`repro.serving` — decomposition-as-a-service: an asyncio job engine
  (queue, cache, cancellation, metrics) over a persistent worker-process
  pool reused across requests.
* :mod:`repro.resilience` — fault tolerance: sweep checkpoint/resume, the
  graceful-degradation ladder + circuit breaker, and the deterministic
  fault-injection harness.
* :mod:`repro.streaming` — incremental tensor ingestion (append-only
  batches merged in the COO container's order), warm-started incremental
  HOOI, and out-of-core decomposition over memory-mapped CSF trees.
* :mod:`repro.data` — synthetic tensors (including analogs of the paper's
  four datasets) and FROSTT-style text IO with a chunked reader.
* :mod:`repro.experiments` — the per-table/figure reproduction harness.

:func:`decompose` is the recommended entry point: one keyword-only call
routing every execution model (``sequential`` / ``thread`` / ``process`` /
``distributed``) with options expressed as plain serializable values.
"""

from repro.api import decompose
from repro.core import (
    HOOIOptions,
    HOOIResult,
    SparseTensor,
    TuckerTensor,
    hooi,
    tucker_fit,
)
from repro.engine import HOOIEngine, WorkspacePool
from repro.resilience import CheckpointState, Checkpointer
from repro.serving import DecompositionService
from repro.streaming import DeltaBatch, StreamingSession, StreamingTensor

__version__ = "1.1.0"

__all__ = [
    "SparseTensor",
    "TuckerTensor",
    "HOOIOptions",
    "HOOIResult",
    "HOOIEngine",
    "WorkspacePool",
    "decompose",
    "hooi",
    "tucker_fit",
    "DecompositionService",
    "Checkpointer",
    "CheckpointState",
    "DeltaBatch",
    "StreamingTensor",
    "StreamingSession",
    "__version__",
]
