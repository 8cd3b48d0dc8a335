"""The traced pass: per-layer metrics and one Chrome trace per workload.

Three sources feed it, all timed from this file and ``e2e_spans.py``:

* engine runs driven through ``HOOIEngine(...).run()`` — the path ``hooi()``
  takes — with the backend from ``resolve_ttmc_backend`` wrapped in a
  :class:`~e2e_spans.TracedBackend` (``engine.driver``, ``engine.workspace``,
  ``core.trsvd`` and the TTMc step's share);
* direct calls to each layer's public builders and kernels on the
  workload's own tensor and factors (``core.symbolic``, ``core.ttmc``,
  ``sparse.*``, ``parallel.process_pool``, ``engine.dimtree``,
  ``streaming``);
* per-request spans from submit to result beside the service's
  ``metrics()`` counters (``serving``; the batch workloads send their own
  request, a repeat and a delta to a service of their own).

Untraced and traced calls alternate (the serving mix runs an untraced loop,
then a traced one), and the ratio of their medians, minus one, is reported
as ``trace.overhead_frac``.
"""

from __future__ import annotations

import asyncio
import json
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import DecompositionService, HOOIEngine, HOOIOptions, WorkspacePool
from repro.core import SymbolicTTMc, ttmc_matricized
from repro.engine import DimensionTree, resolve_ttmc_backend
from repro.parallel import HOOIProcessPool, ProcessConfig
from repro.sparse import CSFTensorSet, csf_ttmc_matricized
from repro.streaming import apply_delta

from e2e_checks import check_result, check_same_fit
from e2e_spans import SpanRecorder, TracedBackend
from e2e_workloads import (
    SERVE_OPTIONS,
    SERVE_RANK,
    BatchWorkload,
    Request,
    RunRecord,
    ServeWorkload,
    call_decompose,
    check_served,
    cold_start,
    delta_update,
    make_delta,
    serve_inputs,
    serve_loop,
    timed_call,
)

#: Repetitions of each direct layer probe (the median is reported).
PROBE_REPEATS = 3
#: Share of ``--seconds`` the alternating untraced / traced rounds may use.
ROUNDS_SHARE = 0.6
#: Engine runs the serving workload traces (on its first fresh tensors).
SERVE_TRACED_RUNS = 3


def median(values) -> float:
    return float(statistics.median(values))


def timed(fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def traced_call(tensor, rank, options: dict, rec: SpanRecorder, workspace: WorkspacePool):
    """What ``decompose()`` runs, with every backend hook inside a span."""
    t0 = time.perf_counter()
    run = rec.begin("decompose")
    opts = HOOIOptions.from_dict(options).validate()
    backend = TracedBackend(resolve_ttmc_backend(opts), rec, tensor.order)
    engine = HOOIEngine(tensor, rank, opts, backend=backend, workspace=workspace)
    backend.open_setup()
    result = engine.run(callback=backend.callback, cancel_check=backend.cancel_check)
    rec.end(run)
    return result, time.perf_counter() - t0


def engine_metrics(rec: SpanRecorder, results, workspace: WorkspacePool) -> Dict[str, float]:
    """``engine.driver``, ``engine.workspace`` and ``core.trsvd`` from the spans."""
    spans, kids, selfs = rec.spans, rec.children(), rec.self_times()
    call: Dict[str, List[float]] = defaultdict(list)
    sweep: Dict[str, List[float]] = defaultdict(list)
    for run in (i for i, s in enumerate(spans) if s.name == "decompose"):
        for c in kids.get(run, []):
            name = spans[c].name
            if name == "setup":
                for g in kids.get(c, []):
                    call[spans[g].name].append(spans[g].duration)
            elif name == "finalize":
                call[name].append(spans[c].duration)
            elif name == "sweep":
                total = spans[c].duration
                parts = defaultdict(list)
                for k in kids.get(c, []):
                    # TRSVD's own time: the pool's factor write is its child.
                    own = selfs[k] if spans[k].name == "trsvd" else spans[k].duration
                    parts[spans[k].name].append(own)
                sweep["ttmc"].append(sum(parts["ttmc"]))
                sweep["ttmc_share"].append(sum(parts["ttmc"]) / total)
                sweep["trsvd"].append(sum(parts["trsvd"]))
                sweep["trsvd_max"].append(max(parts["trsvd"]))
                sweep["trsvd_share"].append(sum(parts["trsvd"]) / total)
                sweep["core"].append(sum(parts["core"]))
                sweep["fit"].append(sum(parts["fit"]))
                sweep["self"].append(selfs[c])
    matvecs = [
        sum(s.matvecs + s.rmatvecs for s in r.trsvd_stats) / max(r.iterations, 1)
        for r in results
    ]
    return {
        "engine.driver.prepare_tensor_s": median(call["prepare_tensor"]),
        "engine.driver.init_s": median(call["initial_factors"]),
        "engine.driver.prepare_s": median(call["prepare"]),
        "engine.driver.finalize_s": median(call["finalize"]),
        "engine.driver.ttmc_s": median(sweep["ttmc"]),
        "engine.driver.core_s": median(sweep["core"]),
        "engine.driver.fit_s": median(sweep["fit"]),
        "engine.driver.self_s": median(sweep["self"]),
        "engine.workspace.allocations": workspace.allocations,
        "engine.workspace.reuses": workspace.reuses,
        "engine.workspace.mb": workspace.nbytes() / 1e6,
        "core.ttmc.share": median(sweep["ttmc_share"]),
        "core.trsvd.sweep_s": median(sweep["trsvd"]),
        "core.trsvd.mode_max_s": median(sweep["trsvd_max"]),
        "core.trsvd.share": median(sweep["trsvd_share"]),
        "core.trsvd.matvecs": median(matvecs),
    }


def sweep_times(kernel: Callable[[int], object], order: int):
    """Per-mode seconds of one sweep of ``kernel(mode)`` over every mode."""
    return [timed(kernel, n)[1] for n in range(order)]


def probe_metrics(tensor, factors, source: str, deltas) -> Dict[str, float]:
    """Direct calls to each layer's builders and kernels on this input."""
    order = tensor.order
    ranks = [f.shape[1] for f in factors]
    out: Dict[str, float] = {}

    out["core.symbolic.build_s"] = median(
        timed(SymbolicTTMc, tensor)[1] for _ in range(PROBE_REPEATS)
    )
    symbolic = SymbolicTTMc(tensor)
    coo = [sweep_times(lambda n: ttmc_matricized(tensor, factors, n, symbolic=symbolic[n]), order)
           for _ in range(PROBE_REPEATS)]
    out["core.ttmc.sweep_s"] = median(sum(s) for s in coo)
    out["core.ttmc.mode_max_s"] = median(max(s) for s in coo)
    flops = sum(2.0 * tensor.nnz * np.prod([r for t, r in enumerate(ranks) if t != n])
                for n in range(order))
    out["core.ttmc.gflops"] = flops / out["core.ttmc.sweep_s"] / 1e9

    builds = [timed(CSFTensorSet.per_mode, tensor) for _ in range(PROBE_REPEATS)]
    trees = builds[-1][0]
    out["sparse.csf.build_s"] = median(t for _, t in builds)
    out["sparse.csf.index_mb"] = trees.memory_bytes() / 1e6
    out["sparse.csf_ttmc.sweep_s"] = median(
        sum(sweep_times(lambda n: csf_ttmc_matricized(trees.tree_for(n), factors, n), order))
        for _ in range(PROBE_REPEATS)
    )

    pool, spawn = timed(
        HOOIProcessPool.for_csf, trees, tensor, factors, ranks, np.float64,
        config=ProcessConfig(num_workers=2),
    )
    try:
        dispatch = [sum(sweep_times(pool.ttmc, order)) for _ in range(PROBE_REPEATS)]
        writes = [sum(timed(pool.write_factor, n, factors[n])[1] for n in range(order))
                  for _ in range(PROBE_REPEATS)]
    finally:
        _, close = timed(pool.close)
    out["parallel.process_pool.spawn_s"] = spawn
    out["parallel.process_pool.dispatch_s"] = median(dispatch)
    out["parallel.process_pool.factor_write_s"] = median(writes)
    out["parallel.process_pool.speedup"] = (
        out["sparse.csf_ttmc.sweep_s"] / out["parallel.process_pool.dispatch_s"]
    )
    out["parallel.process_pool.close_s"] = close
    # ru_maxrss of the largest worker process reaped so far (KiB on Linux).
    out["parallel.process_pool.worker_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )

    tree, out["engine.dimtree.build_s"] = timed(DimensionTree, tensor, source=source)

    def dimtree_sweep(n):
        tree.leaf_matricized(n, factors, dtype=np.float64)
        tree.invalidate_factor(n)

    out["engine.dimtree.first_sweep_s"] = sum(sweep_times(dimtree_sweep, order))
    out["engine.dimtree.sweep_s"] = median(
        sum(sweep_times(dimtree_sweep, order)) for _ in range(PROBE_REPEATS)
    )

    out["streaming.apply_delta_s"] = median(timed(apply_delta, tensor, b)[1] for b in deltas)
    return out


def serving_metrics(records, metrics: dict) -> Dict[str, float]:
    """``serving`` and ``streaming.warm_started`` from requests and ``metrics()``."""
    ok = [r for r in records if r.error is None]
    computed = [r for r in ok if not r.cached]
    return {
        "serving.submit_s": median(r.submitted - r.start for r in ok),
        "serving.cache_hit_ratio": metrics["cache"]["hit_rate"],
        "serving.generations_per_job": metrics["pool"]["generations"] / max(len(computed), 1),
        # Approximate: the engine's own timers miss work outside its hooks.
        "serving.wait_s": median(r.latency - r.result.timings.total() for r in computed),
        "serving.retries": metrics["jobs"]["retries"],
        "serving.fallbacks": sum(metrics["fallbacks"].values()),
        "streaming.warm_started": metrics["jobs"]["warm_started"],
    }


def request_span(rec: SpanRecorder, req) -> None:
    """One served request as a span (its track is the request id) with its submit."""
    track = f"request {req.index}"
    parent = rec.add(f"{req.kind} request", req.start, req.end, track=track,
                     request=req.index, cached=req.cached, ref=req.ref)
    if req.submitted:
        rec.add("submit", req.start, req.submitted, parent=parent, track=track,
                request=req.index)


async def probe_service(tensor, rank, options: dict, batch, rec: SpanRecorder):
    """A request, its repeat and a delta of this workload's, through one service."""
    opts = dict(options, max_iterations=1)
    service = DecompositionService(num_workers=2)
    await service.start()
    records = []
    try:
        base = None
        for i, kind in enumerate(("fresh", "repeat", "delta")):
            req = Request(i, kind, None if kind == "fresh" else 0, start=time.perf_counter())
            if kind == "delta":
                handle = await service.submit_delta(base, batch)
            else:
                handle = await service.submit(tensor, rank, **opts)
            req.submitted = time.perf_counter()
            if kind == "fresh":
                base = handle
            req.result = await handle.result()
            req.cached = handle.cached
            req.end = time.perf_counter()
            request_span(rec, req)
            records.append(req)
        metrics = service.metrics()
    finally:
        await service.aclose()
    return records, metrics


def trace_batch(w: BatchWorkload, tensor, seed: int, seconds: float, rec: SpanRecorder):
    run = RunRecord()
    rng = np.random.default_rng([seed, 1])
    call_decompose(tensor, w.rank, dict(w.options, max_iterations=1))
    untraced, traced, fits, results, delta_sweeps = [], [], [], [], []
    deadline = time.perf_counter() + ROUNDS_SHARE * seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        run.attempted += 3
        result, wall, _, _ = timed_call(tensor, w.rank, w.options)
        untraced.append(wall)
        fits.append(result.fit)
        workspace = WorkspacePool()
        result, wall = traced_call(tensor, w.rank, w.options, rec, workspace)
        traced.append(wall)
        fits.append(result.fit)
        results.append(result)
        _, delta_result, _ = delta_update(
            tensor, make_delta(rng, tensor.shape), w.rank, w.options,
            result.decomposition.factors,
        )
        delta_sweeps.append(delta_result.iterations)
    run.problems += check_same_fit(fits, 1e-12, "untraced and traced calls")
    run.problems += check_result(tensor, results[0])

    layers = engine_metrics(rec, results, workspace)
    layers["engine.driver.sweeps_fresh"] = median(r.iterations for r in results)
    layers["engine.driver.sweeps_delta"] = median(delta_sweeps)
    source = "csf" if w.options.get("tensor_format") == "csf" else "coo"
    deltas = [make_delta(rng, tensor.shape) for _ in range(PROBE_REPEATS)]
    with rec.span("layer probes"):
        layers.update(probe_metrics(tensor, results[0].decomposition.factors, source, deltas))
    records, metrics = asyncio.run(
        probe_service(tensor, w.rank, w.options, make_delta(rng, tensor.shape), rec)
    )
    run.attempted += len(records)
    layers.update(serving_metrics(records, metrics))
    layers["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
    return run, layers


def trace_serve(seed: int, seconds: float, tiny: bool, rec: SpanRecorder):
    run = RunRecord()
    inputs = serve_inputs(seed, tiny)
    fresh = [i for i, (kind, _) in enumerate(inputs.plan) if kind == "fresh"]
    # As in the untraced run, a first service warms the process up.
    asyncio.run(cold_start(inputs.tensors[fresh[0]]))
    half = ROUNDS_SHARE * seconds / 2
    plain, _ = asyncio.run(serve_loop(inputs, half))
    records, metrics = asyncio.run(
        serve_loop(inputs, half, on_done=lambda r: request_span(rec, r))
    )
    everything = plain + records
    run.attempted = len(everything)
    run.failed = sum(r.error is not None for r in everything)
    run.problems += [
        f"request {r.index} ({r.kind}) failed: {r.error}" for r in everything if r.error
    ]
    run.problems += check_served(inputs, records, metrics, seed)

    def fresh_latency(rs) -> float:
        return median(r.latency for r in rs if r.kind == "fresh" and r.error is None)

    results = []
    for i in fresh[:SERVE_TRACED_RUNS]:
        workspace = WorkspacePool()
        result, _ = traced_call(inputs.tensors[i], SERVE_RANK, SERVE_OPTIONS, rec, workspace)
        results.append(result)
    run.problems += check_result(inputs.tensors[fresh[0]], results[0])

    layers = engine_metrics(rec, results, workspace)
    ok = [r for r in records if r.error is None and not r.cached]
    for kind in ("fresh", "delta"):
        layers[f"engine.driver.sweeps_{kind}"] = median(
            r.result.iterations for r in ok if r.kind == kind
        )
    rng = np.random.default_rng([seed, 4])
    tensor = inputs.tensors[fresh[0]]
    deltas = [make_delta(rng, tensor.shape) for _ in range(PROBE_REPEATS)]
    with rec.span("layer probes"):
        layers.update(probe_metrics(tensor, results[0].decomposition.factors, "coo", deltas))
    layers.update(serving_metrics(records, metrics))
    layers["trace.overhead_frac"] = fresh_latency(records) / fresh_latency(plain) - 1.0
    return run, layers


def trace_workload(name: str, w, seed: int, seconds: float, tiny: bool,
                   trace_dir: Optional[Path]):
    """The traced run of one workload: its record and every per-layer value."""
    rec = SpanRecorder()
    if isinstance(w, ServeWorkload):
        run, layers = trace_serve(seed, seconds, tiny, rec)
    else:
        run, layers = trace_batch(w, w.make_tensor(seed, tiny), seed, seconds, rec)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps(rec.chrome_trace(process_name=name)))
        run.extra["trace_file"] = str(path)
    return run, layers
