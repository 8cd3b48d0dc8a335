"""Streaming Tucker: incremental ingestion, warm-start HOOI, out-of-core CSF.

The dynamic-tensor subsystem (ROADMAP: "Incremental and streaming Tucker
for dynamic tensors").  Three layers:

* **Ingestion** — :class:`DeltaBatch` / :func:`apply_delta` /
  :class:`StreamingTensor`: append batches of nonzeros into a tensor whose
  merged nonzeros are kept once, in the COO container's column-major order,
  and stay bit-identical to one-shot construction.
* **Warm-start HOOI** — :func:`streaming_hooi` / :class:`StreamingSession`:
  re-enter the HOOI engine seeded from the previous factors (padded or
  truncated when a mode grows) with a sweep budget scaled to the delta,
  instead of cold-restarting after every append.
* **Out-of-core** — :func:`build_out_of_core` / :class:`OutOfCoreTensor` /
  :func:`out_of_core_hooi`: spool a ``.tns`` stream into memory-mapped CSF
  trees and run HOOI with the level arrays paged from disk, so tensors
  whose in-memory footprint exceeds RAM still decompose.
"""

from repro.streaming.delta import DeltaBatch, apply_delta
from repro.streaming.out_of_core import (
    OutOfCoreTensor,
    build_out_of_core,
    out_of_core_hooi,
)
from repro.streaming.tensor import AppendStats, StreamingTensor
from repro.streaming.warmstart import (
    StreamingSession,
    adaptive_sweep_budget,
    conform_factors,
    streaming_hooi,
)

__all__ = [
    "AppendStats",
    "DeltaBatch",
    "OutOfCoreTensor",
    "StreamingSession",
    "StreamingTensor",
    "adaptive_sweep_budget",
    "apply_delta",
    "build_out_of_core",
    "conform_factors",
    "out_of_core_hooi",
    "streaming_hooi",
]
