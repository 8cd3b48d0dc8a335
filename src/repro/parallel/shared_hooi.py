"""Shared-memory parallel HOOI (Algorithm 3 of the paper).

The driver mirrors :func:`repro.core.hooi.hooi` but parallelizes the two
expensive per-mode steps:

* the symbolic TTMc of each mode is built concurrently (one task per mode,
  Algorithm 3 lines 1-2);
* the numeric TTMc distributes the non-empty rows ``J_n`` over worker threads
  with the configured schedule (lines 5-8) — lock-free because each row is
  written by exactly one worker;
* the TRSVD's MxV/MTxV products operate on the dense ``Y_(n)`` with BLAS2
  kernels (line 9);
* the core tensor is a single GEMM on the last mode's TTMc result (line 10).

Both this driver and the sequential one run the *same* iteration loop —
:class:`repro.engine.driver.HOOIEngine` — differing only in the
dispatcher of the :class:`~repro.engine.backend.PlanBackend` plugged in, so
the results agree by construction.

In addition to running the computation, the driver can *predict* the
per-iteration time for an arbitrary thread count through the node roofline
model (:mod:`repro.parallel.model`); the thread-scaling experiment (paper
Table V) reports both the measured and the modelled numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.hooi import HOOIOptions, HOOIResult
from repro.core.sparse_tensor import SparseTensor
from repro.engine.backend import resolve_ttmc_backend
from repro.engine.driver import HOOIEngine
from repro.parallel.model import NodeModel, BGQ_NODE
from repro.parallel.parallel_for import ParallelConfig
from repro.parallel.work import (
    core_phase_work,
    trsvd_phase_work,
    ttmc_phase_work,
)
from repro.util.validation import check_rank_vector

__all__ = ["shared_hooi", "predict_iteration_time", "SharedHOOIReport"]


@dataclass
class SharedHOOIReport:
    """Result of a shared-memory HOOI run plus the model prediction."""

    result: HOOIResult
    measured_seconds_per_iteration: float
    modelled_seconds_per_iteration: float
    num_threads: int


def shared_hooi(
    tensor: SparseTensor,
    ranks: Sequence[int] | int,
    options: Optional[HOOIOptions] = None,
    *,
    config: Optional[ParallelConfig] = None,
    node_model: NodeModel = BGQ_NODE,
    callback: Optional[Callable[[int, float], None]] = None,
    workspace=None,
) -> SharedHOOIReport:
    """Run Algorithm 3 with the given thread configuration.

    Returns both the numerical result (identical, up to sign conventions of
    singular vectors, to the sequential driver) and measured / modelled
    per-iteration times for the scaling experiments.  ``callback(iteration,
    fit)`` is invoked after each tracked iteration, exactly as in the
    sequential driver.
    """
    config = config or ParallelConfig()
    options = options or HOOIOptions()
    engine = HOOIEngine(
        tensor,
        ranks,
        options,
        backend=resolve_ttmc_backend(options, config),
        workspace=workspace,
    )
    result = engine.run(callback=callback)
    measured = (
        float(np.mean(engine.iteration_seconds)) if engine.iteration_seconds else 0.0
    )
    modelled = predict_iteration_time(
        tensor, ranks, config.num_threads, node_model=node_model
    )
    return SharedHOOIReport(
        result=result,
        measured_seconds_per_iteration=measured,
        modelled_seconds_per_iteration=modelled,
        num_threads=config.num_threads,
    )


def predict_iteration_time(
    tensor: SparseTensor,
    ranks: Sequence[int] | int,
    num_threads: int,
    *,
    node_model: NodeModel = BGQ_NODE,
    trsvd_iterations: int = 5,
) -> float:
    """Model the time of one HOOI iteration on a single node with ``num_threads``.

    Sums, over the modes, the roofline times of the TTMc (latency-bound) and
    TRSVD (bandwidth-bound) phases plus the final core-tensor GEMM — the
    decomposition the paper uses to explain its Table V.
    """
    ranks = check_rank_vector(ranks, tensor.shape)
    total = 0.0
    for mode in range(tensor.order):
        rows = int(tensor.nonempty_rows(mode).shape[0])
        ttmc_work = ttmc_phase_work(tensor.nnz, tensor.order, ranks, mode)
        trsvd_work = trsvd_phase_work(
            rows, ranks, mode, solver_iterations=trsvd_iterations
        )
        total += node_model.phase_time(ttmc_work, num_threads)
        total += node_model.phase_time(trsvd_work, num_threads)
    rows_last = int(tensor.nonempty_rows(tensor.order - 1).shape[0])
    total += node_model.phase_time(core_phase_work(rows_last, ranks), num_threads)
    return total
