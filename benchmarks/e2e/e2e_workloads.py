"""The benchmark's four workloads, their inputs and their untraced runs.

Every input is generated from the workload seed; HOOI itself always runs
with ``seed=0``.  The end-to-end numbers come from calls through the public
API only: ``repro.decompose``, ``repro.streaming.streaming_hooi`` and
``repro.DecompositionService``.
"""

from __future__ import annotations

import asyncio
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import DecompositionService, decompose
from repro.data import make_dataset, planted_lowrank_tensor
from repro.streaming import DeltaBatch, apply_delta, streaming_hooi

from e2e_checks import check_result, check_same_fit, check_same_result
from e2e_stats import percentile, quartiles, supported_tail, window_rates

#: Nonzeros in every streamed delta.
DELTA_NNZ = 120
#: ``--tiny`` divides every input size by this (the harness tests' smoke runs).
TINY_DIVISOR = 20
#: Fresh + delta pairs a batch workload runs at least, whatever ``--seconds``.
MIN_PAIRS = 2
#: A batch workload adds set-up-only calls to its set-up samples: at least
#: this many, and for at least this share of ``--seconds``.  A set-up takes
#: 25-200 ms, so short hiccups of the machine move a median of few samples.
SETUP_REPEATS = 10
SETUP_SHARE = 0.08

BATCH_HOOI = dict(trsvd_method="lanczos", max_iterations=5, tolerance=0.0, seed=0)

#: The serving mix: request tensors, options and service configuration.
#: The mix, the client count and the delta size are assumptions: neither the
#: repository nor a cited source gives a traffic mix for this service.
SERVE_SHAPE = (200, 150, 100)
SERVE_RANK = 6
SERVE_NNZ = 6000
SERVE_NOISE = 0.05
SERVE_OPTIONS = dict(
    execution="process", trsvd_method="gram", tolerance=1e-4, max_iterations=10, seed=0
)
SERVE_SERVICE = dict(num_workers=2, cache_capacity=256)
SERVE_CLIENTS = 2
SERVE_REQUESTS = 600
#: Every loop sends at least this many requests, whatever ``--seconds`` (the
#: whole plan under ``--tiny``), so each request class is present.
SERVE_MIN_REQUESTS = 20
#: Each block of 20 requests holds exactly this mix (55% fresh, 25% repeat,
#: 20% delta) in a seeded order, so every prefix of the plan, and so every
#: run length, sends nearly the same mix.
SERVE_BLOCK = ("fresh",) * 11 + ("repeat",) * 5 + ("delta",) * 4
#: Repeats and deltas refer to one of this many most recent fresh requests,
#: so its cache entry is not yet evicted, and to none of the last two
#: requests, so its base has almost always finished; the loop waits for the
#: base when it has not.
SERVE_RECENT = 60
SERVE_WINDOW = 50
SERVE_COLD_STARTS = 15
SERVE_SAMPLED_CHECKS = 5

#: The run samples each end-to-end metric reduces; every one but the tail
#: latency is their median.
E2E_SAMPLES = {
    "decompose_s": "decompose_s",
    "setup_s": "setup_s",
    "sweep_s": "sweep_s",
    "jobs_per_s": "jobs_per_s",
    "latency_p95_s": "latency_s",
    "delta_latency_p50_s": "delta_latency_s",
    "peak_rss_mb": "peak_rss_mb",
}


@dataclass(frozen=True)
class BatchWorkload:
    """Repeated ``decompose()`` calls on one dataset analog, each followed
    by a streamed delta and a warm-started update."""

    dataset: str
    scale: float
    rank: object
    options: dict

    def make_tensor(self, seed: int, tiny: bool):
        scale = self.scale / TINY_DIVISOR if tiny else self.scale
        return make_dataset(self.dataset, scale=scale, seed=seed)


@dataclass(frozen=True)
class ServeWorkload:
    """A closed loop of clients sending a fresh / repeat / delta mix to one service."""

    @staticmethod
    def sizes(tiny: bool) -> Tuple[Tuple[int, ...], int, int, int]:
        """Request tensor shape, nonzeros per request, requests in the plan
        and cold starts timed."""
        if tiny:
            shape = tuple(s // 5 for s in SERVE_SHAPE)
            return shape, SERVE_NNZ // TINY_DIVISOR, SERVE_MIN_REQUESTS, 2
        return SERVE_SHAPE, SERVE_NNZ, SERVE_REQUESTS, SERVE_COLD_STARTS


WORKLOADS = {
    "delicious-coo-seq": BatchWorkload(
        "delicious", 1e-3, 5, dict(BATCH_HOOI, execution="sequential", tensor_format="coo")
    ),
    "delicious-csf-proc2": BatchWorkload(
        "delicious", 1e-3, 5,
        dict(BATCH_HOOI, execution="process", tensor_format="csf", num_workers=2),
    ),
    "nell-dimtree-thread2": BatchWorkload(
        "nell", 2e-3, (10, 8, 10),
        dict(BATCH_HOOI, execution="thread", ttmc_strategy="dimtree", num_workers=2),
    ),
    "serve-mix": ServeWorkload(),
}


def call_decompose(tensor, rank, options: dict, **kwargs):
    """``decompose()`` with the execution axis passed the way its signature wants."""
    options = dict(options)
    execution = options.pop("execution")
    return decompose(tensor, rank, execution=execution, options=options, **kwargs)


def make_delta(rng: np.random.Generator, shape) -> DeltaBatch:
    """``DELTA_NNZ`` new entries inside ``shape`` (so no mode grows)."""
    indices = np.column_stack([rng.integers(0, s, DELTA_NNZ) for s in shape])
    return DeltaBatch(indices, rng.uniform(0.0, 1.0, DELTA_NNZ))


def peak_rss_mb() -> float:
    """Peak RSS of this process so far.

    Runs read it after a fixed amount of work (``MIN_PAIRS`` pairs, or
    ``SERVE_MIN_REQUESTS`` requests): the allocator's heap keeps growing
    with every further call, so a reading at the end would track how many
    calls fit in ``--seconds`` — the machine's speed — instead of the
    program's footprint.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Batch workloads: decompose() calls with streamed updates
# --------------------------------------------------------------------------- #
def timed_call(tensor, rank, options: dict):
    """One ``decompose()`` call: result, wall time, set-up time, sweep times.

    The engine calls ``cancel_check`` at every sweep boundary and before
    every mode, and ``callback`` after each sweep's fit, so a sweep runs
    from every ``(order + 1)``-th check to the next callback.
    """
    checks: List[float] = []
    ends: List[float] = []
    t0 = time.perf_counter()
    result = call_decompose(
        tensor, rank, options,
        callback=lambda _it, _fit: ends.append(time.perf_counter()),
        cancel_check=lambda: checks.append(time.perf_counter()),
    )
    wall = time.perf_counter() - t0
    starts = checks[:: tensor.order + 1]
    return result, wall, checks[0] - t0, [e - s for s, e in zip(starts, ends)]


class _SetupDone(Exception):
    """Raised from ``cancel_check`` to end a call once its set-up is timed."""


def setup_only(tensor, rank, options: dict) -> float:
    """Time from a ``decompose()`` call to its first ``cancel_check``.

    The check raises, so the engine finalizes and the call ends before its
    first sweep: the set-up is sampled many times at little cost.
    """
    t0 = time.perf_counter()

    def stop() -> None:
        raise _SetupDone(time.perf_counter() - t0)

    try:
        call_decompose(tensor, rank, options, cancel_check=stop)
    except _SetupDone as done:
        return done.args[0]
    raise RuntimeError("decompose() returned without reaching its first sweep")


def delta_update(tensor, batch: DeltaBatch, rank, options: dict, factors):
    """Ingest ``batch`` and re-decompose warm-started from ``factors``."""
    t0 = time.perf_counter()
    updated = apply_delta(tensor, batch)
    result = streaming_hooi(
        updated, rank, options,
        resume_factors=factors, delta_fraction=batch.nnz / updated.nnz,
    )
    return updated, result, time.perf_counter() - t0


@dataclass
class RunRecord:
    """What one measured run collected, before it is reduced to metrics."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, *values: float) -> None:
        self.samples.setdefault(name, []).extend(float(v) for v in values)


def run_batch(w: BatchWorkload, tensor, seed: int, seconds: float) -> RunRecord:
    rec = RunRecord()
    rng = np.random.default_rng([seed, 1])
    # Imports, BLAS threads and allocator pools settle in a one-sweep call.
    call_decompose(tensor, w.rank, dict(w.options, max_iterations=1))
    start = time.perf_counter()
    setups = 0
    while setups < SETUP_REPEATS or time.perf_counter() < start + SETUP_SHARE * seconds:
        rec.add("setup_s", setup_only(tensor, w.rank, w.options))
        setups += 1
    first = None
    deadline = start + seconds
    pairs = 0
    while pairs < MIN_PAIRS or time.perf_counter() < deadline:
        pair_start = time.perf_counter()
        rec.attempted += 1
        try:
            result, wall, setup, sweeps = timed_call(tensor, w.rank, w.options)
        except Exception as exc:  # a failed call is reported, not raised
            rec.failed += 1
            rec.problems.append(f"decompose() failed: {exc!r}")
            break
        rec.add("decompose_s", wall)
        rec.add("setup_s", setup)
        rec.add("sweep_s", *sweeps)
        rec.add("fit", result.fit)
        rec.attempted += 1
        batch = make_delta(rng, tensor.shape)
        try:
            updated, delta_result, delta_wall = delta_update(
                tensor, batch, w.rank, w.options, result.decomposition.factors
            )
        except Exception as exc:
            rec.failed += 1
            rec.problems.append(f"delta update failed: {exc!r}")
            break
        rec.add("delta_latency_s", delta_wall)
        rec.add("latency_s", wall, delta_wall)
        rec.add("jobs_per_s", 2.0 / (time.perf_counter() - pair_start))
        if first is None:
            first = (result, updated, delta_result)
        pairs += 1
        if pairs == MIN_PAIRS:
            rec.add("peak_rss_mb", peak_rss_mb())

    rec.problems += check_same_fit(rec.samples.get("fit", []), 1e-12, "repeated calls")
    if first is not None:
        result, updated, delta_result = first
        rec.problems += check_result(tensor, result)
        rec.problems += [f"delta update: {p}" for p in check_result(updated, delta_result)]
        rec.extra["fit"] = result.fit
    return rec


# --------------------------------------------------------------------------- #
# The serving mix
# --------------------------------------------------------------------------- #
@dataclass
class Request:
    index: int
    kind: str  # "fresh" | "repeat" | "delta"
    ref: Optional[int]
    start: float = 0.0
    submitted: float = 0.0
    end: float = 0.0
    result: object = None
    cached: bool = False
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class ServeInputs:
    plan: List[Tuple[str, Optional[int]]]
    tensors: Dict[int, object]
    batches: Dict[int, DeltaBatch]


def serve_plan(seed: int, count: int) -> List[Tuple[str, Optional[int]]]:
    """``count`` requests as ``(kind, index of the fresh request referred to)``."""
    rng = np.random.default_rng([seed, 2])
    plan: List[Tuple[str, Optional[int]]] = []
    fresh: List[int] = []
    for i in range(count):
        if i % len(SERVE_BLOCK) == 0:
            block = rng.permutation(SERVE_BLOCK)
        kind = str(block[i % len(SERVE_BLOCK)])
        eligible = [f for f in fresh if f <= i - 2][-SERVE_RECENT:]
        if kind == "fresh" or not eligible:
            plan.append(("fresh", None))
            fresh.append(i)
        else:
            plan.append((kind, int(rng.choice(eligible))))
    return plan


def serve_inputs(seed: int, tiny: bool) -> ServeInputs:
    """The request plan and every tensor and delta it needs, from ``seed``."""
    shape, nnz, count, _ = ServeWorkload.sizes(tiny)
    plan = serve_plan(seed, count)
    rng = np.random.default_rng([seed, 5])
    tensors = {
        i: planted_lowrank_tensor(
            shape, SERVE_RANK, nnz, noise=SERVE_NOISE, seed=seed * 100_003 + i
        )[0]
        for i, (kind, _) in enumerate(plan) if kind == "fresh"
    }
    batches = {
        i: DeltaBatch(
            np.column_stack([rng.integers(0, s, DELTA_NNZ) for s in shape]),
            rng.normal(0.0, SERVE_NOISE, DELTA_NNZ),
        )
        for i, (kind, _) in enumerate(plan) if kind == "delta"
    }
    return ServeInputs(plan, tensors, batches)


async def serve_loop(inputs: ServeInputs, seconds: float, on_done=None):
    """Closed loop: each client sends its next request when the last returns.

    Returns the per-request records and the service's ``metrics()``.
    ``on_done(request)`` runs after every completion (the traced pass hangs
    its request spans there).
    """
    service = DecompositionService(**SERVE_SERVICE)
    await service.start()
    handles: Dict[int, object] = {}
    finished: Dict[int, asyncio.Event] = defaultdict(asyncio.Event)
    records: List[Request] = []
    cursor = iter(range(len(inputs.plan)))
    deadline = time.perf_counter() + seconds

    async def client() -> None:
        for i in cursor:
            if i >= SERVE_MIN_REQUESTS and time.perf_counter() >= deadline:
                return
            kind, ref = inputs.plan[i]
            if ref is not None:
                # The other client may still be running the base.  Waiting for
                # it makes every repeat a cache hit and every delta warm-started,
                # whatever the timing; a request's latency starts after the wait.
                await finished[ref].wait()
            req = Request(i, kind, ref, start=time.perf_counter())
            try:
                if kind == "delta":
                    handle = await service.submit_delta(handles[ref], inputs.batches[i])
                else:
                    tensor = inputs.tensors[i if kind == "fresh" else ref]
                    handle = await service.submit(tensor, SERVE_RANK, **SERVE_OPTIONS)
                req.submitted = time.perf_counter()
                handles[i] = handle
                req.result = await handle.result()
                req.cached = handle.cached
            except Exception as exc:  # refused or failed requests are counted
                req.error = repr(exc)
            req.end = time.perf_counter()
            records.append(req)
            finished[i].set()
            if on_done is not None:
                on_done(req)

    try:
        await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))
        metrics = service.metrics()
    finally:
        await service.aclose()
    return records, metrics


async def cold_start(tensor) -> float:
    """``start()`` plus one request on a service whose crew spawns lazily."""
    t0 = time.perf_counter()
    service = DecompositionService(**SERVE_SERVICE, warmup=False)
    await service.start()
    try:
        handle = await service.submit(tensor, SERVE_RANK, **SERVE_OPTIONS)
        await handle.result()
        return time.perf_counter() - t0
    finally:
        await service.aclose()


def engine_sweep_seconds(result) -> float:
    """Per-sweep engine time of a served result (the engine's own timers)."""
    totals = result.timings.totals
    busy = sum(totals.get(k, 0.0) for k in ("ttmc", "trsvd", "core"))
    return busy / max(result.iterations, 1)


def check_served(inputs: ServeInputs, records: List[Request], metrics: dict,
                 seed: int) -> List[str]:
    """Every repeat hits the cache and every delta starts warm; cache hits
    equal their originals; sampled results equal direct runs."""
    problems = []
    by_index = {r.index: r for r in records if r.error is None}
    missed = [r.index for r in by_index.values() if r.kind == "repeat" and not r.cached]
    if missed:
        problems.append(f"repeat requests {missed[:5]} missed the cache")
    deltas = sum(r.kind == "delta" for r in by_index.values())
    if metrics["jobs"]["warm_started"] != deltas:
        problems.append(
            f"{metrics['jobs']['warm_started']} warm starts for {deltas} delta requests"
        )
    for req in by_index.values():
        if req.kind == "repeat" and req.ref in by_index:
            problems += check_same_result(
                req.result, by_index[req.ref].result, 1e-12, f"repeat of request {req.ref}"
            )
    computed = sorted(
        i for i, r in by_index.items()
        if r.kind == "fresh" or (r.kind == "delta" and r.ref in by_index)
    )
    rng = np.random.default_rng([seed, 3])
    picks = rng.choice(computed, size=min(SERVE_SAMPLED_CHECKS, len(computed)), replace=False)
    sequential = dict(SERVE_OPTIONS, execution="sequential")
    for i in sorted(int(p) for p in picks):
        req = by_index[i]
        if req.kind == "fresh":
            tensor = inputs.tensors[i]
            reference = call_decompose(tensor, SERVE_RANK, sequential)
        else:
            tensor = apply_delta(inputs.tensors[req.ref], inputs.batches[i])
            reference = call_decompose(
                tensor, SERVE_RANK, sequential,
                resume_factors=by_index[req.ref].result.decomposition.factors,
            )
        problems += check_same_result(req.result, reference, 1e-8, f"served request {i}")
        problems += [f"served request {i}: {p}" for p in check_result(tensor, req.result)]
    return problems


def run_serve(seed: int, seconds: float, tiny: bool) -> RunRecord:
    rec = RunRecord()
    inputs = serve_inputs(seed, tiny)
    fresh = [i for i, (kind, _) in enumerate(inputs.plan) if kind == "fresh"]
    for i in fresh[:ServeWorkload.sizes(tiny)[3]]:
        rec.add("setup_s", asyncio.run(cold_start(inputs.tensors[i])))
    done = []

    def on_done(req: Request) -> None:
        done.append(req)
        if len(done) == SERVE_MIN_REQUESTS:
            rec.add("peak_rss_mb", peak_rss_mb())

    records, metrics = asyncio.run(serve_loop(inputs, seconds, on_done))
    rec.attempted = len(records)
    rec.failed = sum(r.error is not None for r in records)
    rec.problems += [f"request {r.index} ({r.kind}) failed: {r.error}" for r in records if r.error]
    ok = [r for r in records if r.error is None]
    rec.add("decompose_s", *(r.latency for r in ok if r.kind == "fresh"))
    rec.add("sweep_s", *(engine_sweep_seconds(r.result) for r in ok if r.kind == "fresh"))
    rec.add("delta_latency_s", *(r.latency for r in ok if r.kind == "delta"))
    rec.add("latency_s", *(r.latency for r in ok))
    window = min(SERVE_WINDOW, max(1, len(ok) // 4))
    rec.add("jobs_per_s", *window_rates([r.end for r in ok], window))
    rec.problems += check_served(inputs, records, metrics, seed)
    return rec


# --------------------------------------------------------------------------- #
# Reduction to the reported metrics
# --------------------------------------------------------------------------- #
def e2e_metrics(rec: RunRecord) -> Dict[str, dict]:
    """Every end-to-end metric with its sample count and quartiles."""
    out = {}
    for name, key in E2E_SAMPLES.items():
        samples = rec.samples[key]
        q1, med, q3 = quartiles(samples)
        out[name] = {"value": med, "n": len(samples), "q1": q1, "q3": q3}
    latency = out["latency_p95_s"]
    latency["value"] = percentile(rec.samples["latency_s"], 95)
    # The highest percentile with ten samples beyond it (None: not even p90).
    latency["supported_tail"] = supported_tail(latency["n"])
    return out
