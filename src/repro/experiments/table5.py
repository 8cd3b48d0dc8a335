"""Table V — shared-memory thread scaling.

The paper varies the number of OpenMP threads from 1 to 32 on the minimum
number of nodes each tensor fits in and reports the time per HOOI iteration;
the observed pattern is that the latency-bound tensors (Netflix, NELL) scale
much better than the ones dominated by the bandwidth-bound TRSVD of a huge
mode (Delicious, Flickr), with Netflix even super-linear thanks to the 2
hardware threads per core.

The reproduction reports two curves per dataset:

* **modelled** — the node roofline model (:func:`predict_iteration_time`)
  applied to the analog's work profile for 1..32 threads (this is what
  reproduces the BlueGene/Q shape);
* **measured** — seconds per sweep of ``decompose(execution="thread")`` on the
  analog: the engine's TTMc + TRSVD + core timers over the sweeps run (Python
  threads; the absolute speedups are limited by the GIL for the non-BLAS
  parts, so these are reported for completeness, not as the headline
  numbers).

The paper's headline Table V configuration is *hybrid*: MPI ranks each
running a multithreaded TTMc.  :func:`run_table5_hybrid` runs that for real —
the simulated-MPI distributed driver with ``execution="thread"`` ranks — and
reports the machine-model iteration time per (ranks × threads) point, so the
thread-scaling shape comes out of the actual SPMD program (communication
included) instead of the analytic single-node model alone.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.api import decompose
from repro.core.hooi import HOOIOptions
from repro.core.sparse_tensor import SparseTensor
from repro.distributed.dist_hooi import distributed_hooi
from repro.experiments.calibration import (
    DEFAULT_THREAD_COUNTS,
    scaled_machine,
    scaled_node,
)
from repro.experiments.harness import DATASET_ORDER, ExperimentContext, format_table
from repro.parallel.model import BGQ_NODE, NodeModel
from repro.parallel.work import (
    core_phase_work,
    trsvd_phase_work,
    ttmc_phase_work,
)
from repro.util.validation import check_rank_vector

__all__ = [
    "predict_iteration_time",
    "run_table5",
    "render_table5",
    "run_table5_hybrid",
    "render_table5_hybrid",
]


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


def run_table5(
    context: Optional[ExperimentContext] = None,
    *,
    datasets: Sequence[str] = DATASET_ORDER,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    node_model: Optional[NodeModel] = None,
    measure: bool = True,
    measured_thread_counts: Sequence[int] = (1, 2, 4),
    iterations: int = 2,
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Thread-scaling results: ``result[dataset]['modelled'|'measured'][threads]``.

    ``measured`` runs ``decompose(tensor, ranks, execution="thread",
    num_workers=T)`` and reports its seconds per sweep (TTMc + TRSVD + core
    from ``result.timings``, over ``result.iterations``).
    """
    context = context or ExperimentContext()
    if node_model is None:
        node_model = scaled_node(context.scale)
    result: Dict[str, Dict[str, Dict[int, float]]] = {}
    for dataset in datasets:
        tensor = context.tensor(dataset)
        ranks = context.ranks(dataset)
        modelled = {
            threads: predict_iteration_time(
                tensor, ranks, threads, node_model=node_model
            )
            for threads in thread_counts
        }
        measured: Dict[int, float] = {}
        if measure:
            for threads in measured_thread_counts:
                run = decompose(
                    tensor,
                    ranks,
                    execution="thread",
                    num_workers=threads,
                    max_iterations=iterations,
                    init="random",
                    seed=seed,
                )
                totals = run.timings.totals
                busy = sum(totals.get(k, 0.0) for k in ("ttmc", "trsvd", "core"))
                measured[threads] = busy / max(run.iterations, 1)
        result[dataset] = {"modelled": modelled, "measured": measured}
    return result


def run_table5_hybrid(
    context: Optional[ExperimentContext] = None,
    *,
    datasets: Sequence[str] = ("netflix", "nell"),
    strategy: str = "fine-hp",
    rank_counts: Sequence[int] = (2, 4),
    thread_counts: Sequence[int] = (1, 4, 16),
    ttmc_strategy: str = "per-mode",
    iterations: int = 2,
    seed: int = 0,
    machine=None,
) -> Dict[str, Dict[Tuple[int, int], Dict[str, float]]]:
    """Hybrid (MPI ranks × threads per rank) Table V points, run for real.

    Every (``P`` ranks, ``T`` threads) point executes the distributed HOOI
    with ``HOOIOptions(execution="thread", num_workers=T)`` — each simulated
    rank runs the row-disjoint threaded TTMc over its own update lists, and
    the machine model charges the rank's compute phases at ``T`` threads.
    Returns ``result[dataset][(P, T)]`` with the simulated seconds per
    iteration (the Table V quantity), the measured wall seconds, and the
    final fit (identical across ``T`` by construction — execution strategy
    only changes local compute).
    """
    context = context or ExperimentContext()
    if machine is None:
        machine = scaled_machine(context.scale)
    result: Dict[str, Dict[Tuple[int, int], Dict[str, float]]] = {}
    for dataset in datasets:
        tensor = context.tensor(dataset)
        ranks = context.ranks(dataset)
        points: Dict[Tuple[int, int], Dict[str, float]] = {}
        for num_ranks in rank_counts:
            partition = context.partition(dataset, strategy, num_ranks)
            for threads in thread_counts:
                run = distributed_hooi(
                    tensor,
                    ranks,
                    partition,
                    HOOIOptions(
                        max_iterations=iterations,
                        init="random",
                        seed=seed,
                        execution="thread",
                        num_workers=threads,
                        ttmc_strategy=ttmc_strategy,
                    ),
                    machine=machine,
                )
                points[(num_ranks, threads)] = {
                    "simulated": run.simulated_time_per_iteration,
                    "measured": run.wall_time_per_iteration,
                    "fit": run.fit,
                }
        result[dataset] = points
    return result


def render_table5_hybrid(
    result: Dict[str, Dict[Tuple[int, int], Dict[str, float]]],
) -> str:
    datasets = list(result.keys())
    points = sorted(next(iter(result.values())).keys())
    headers = ["ranks x threads"] + [d.capitalize() for d in datasets]
    rows = []
    for num_ranks, threads in points:
        rows.append(
            [f"{num_ranks} x {threads}"]
            + [result[d][(num_ranks, threads)]["simulated"] for d in datasets]
        )
    return format_table(
        headers, rows,
        title="Table V (hybrid, simulated): seconds per HOOI iteration",
    )


def render_table5(result: Dict[str, Dict[str, Dict[int, float]]]) -> str:
    datasets = list(result.keys())
    thread_counts = sorted(next(iter(result.values()))["modelled"].keys())
    headers = ["#threads"] + [d.capitalize() for d in datasets]
    rows = []
    for threads in thread_counts:
        rows.append([str(threads)] + [result[d]["modelled"][threads] for d in datasets])
    modelled = format_table(
        headers, rows,
        title="Table V (modelled): seconds per HOOI iteration vs threads",
    )
    speedup_rows = []
    for threads in thread_counts:
        speedup_rows.append(
            [str(threads)]
            + [
                result[d]["modelled"][thread_counts[0]] / result[d]["modelled"][threads]
                for d in datasets
            ]
        )
    speedups = format_table(
        headers, speedup_rows,
        title="Table V (modelled): speedup over 1 thread",
    )
    blocks = [modelled, speedups]
    if any(result[d]["measured"] for d in datasets):
        measured_counts = sorted(
            {t for d in datasets for t in result[d]["measured"]}
        )
        measured_rows = []
        for threads in measured_counts:
            measured_rows.append(
                [str(threads)]
                + [result[d]["measured"].get(threads, float("nan")) for d in datasets]
            )
        blocks.append(
            format_table(
                headers, measured_rows,
                title="Table V (measured, Python threads): seconds per iteration",
            )
        )
    return "\n\n".join(blocks)
