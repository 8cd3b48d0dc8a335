"""Persistent multiprocess worker pool for true-multicore HOOI.

The threaded backend decomposes the TTMc exactly as the paper's Algorithm 3;
its sparse × dense segment-sums release the GIL, but the per-block Python
work between them does not, so threads scale only on large row chunks.
This module provides the same row-parallel, lock-free execution on worker
*processes* with zero-copy shared memory:

* All big operands live in a :class:`~repro.parallel.shm.ShmArena` — the
  tensor's ``indices``/``values``, every mode's symbolic update lists (or the
  dimension tree's fiber groupings, or the CSF trees' per-level
  ``fids``/``fptr`` arrays), the factor matrices, and the ``Y_(n)`` output
  buffers (or tree-node payloads).  Workers attach views once at pool
  startup and reuse them across every mode and iteration.
* Numeric work is dispatched as tiny ``(mode, row_chunk)`` /
  ``(node, fiber_chunk)`` descriptors over the same static/dynamic/guided
  :func:`~repro.parallel.parallel_for.make_chunks` schedules the threaded
  backend uses.  Each chunk's rows are written by exactly one worker into a
  row-disjoint slice of the shared output — no locks, and no result pickling.
* Factor refreshes are *broadcast by memory*: after each TRSVD the driver
  writes the new ``U_n`` into its shared segment (:meth:`write_factor`); the
  queue hand-off of the next task batch orders the write before any read, so
  workers always compute with current factors.  For the dimension tree the
  driver's version counters decide which nodes went stale; workers stay
  stateless and simply execute the edge chunks they are handed.

The pool is bound to one engine run (fixed tensor, ranks and dtype) and must
be closed with :meth:`close` — idempotent, crash-safe (the arena unlinks its
segments even on abnormal teardown), and automatically invoked by the
engine's ``finalize`` hook.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

import numpy as np

from repro.core.symbolic import ModeSymbolic
from repro.core.subset_ttmc import FiberGrouping, edge_update_groups, subset_widths
from repro.core.kron import kron_row_length
from repro.parallel.parallel_for import make_chunks
from repro.parallel.shm import ShmArena, ShmView
from repro.resilience.faults import maybe_fail

__all__ = [
    "ProcessConfig",
    "WorkerCrashError",
    "HOOIProcessPool",
    "PersistentWorkerCrew",
    "BatchJobSpec",
    "default_start_method",
]

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_PROCESS_START_METHOD"


def default_start_method() -> str:
    """``fork`` where available (cheap startup), else ``spawn``.

    Overridable via ``REPRO_PROCESS_START_METHOD`` for debugging — ``spawn``
    gives workers a pristine interpreter at the cost of re-importing NumPy.
    """
    override = os.environ.get(START_METHOD_ENV)
    if override:
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class ProcessConfig:
    """Configuration of the process pool (mirrors :class:`ParallelConfig`)."""

    num_workers: int = 1
    schedule: str = "dynamic"
    chunk_size: Optional[int] = None
    start_method: Optional[str] = None
    startup_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.schedule not in ("static", "dynamic", "guided"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when given")


class WorkerCrashError(RuntimeError):
    """A worker process died while (or before) executing dispatched work."""


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
class _JobProgram:
    """One job's views of the shared operands (``prefix`` namespaces a batch).

    A single-job pool builds exactly one program with an empty prefix; a
    batched generation (:meth:`HOOIProcessPool.for_per_mode_batch`) builds
    one program per member job, each reading its own ``<job>:``-prefixed
    segments of the shared arena.
    """

    def __init__(self, view: ShmView, meta: dict, prefix: str = "") -> None:
        self.view = view
        self.prefix = prefix
        self.shape = tuple(meta["shape"])
        self.dtype = np.dtype(meta["dtype"])
        self.block_nnz = meta["block_nnz"]
        # Workers JIT-compile lazily on first task (numba's cache=True makes
        # every worker after the first a disk-cache hit).
        self.kernel = meta.get("kernel", "numpy")
        order = len(self.shape)
        self.factors: List[np.ndarray] = [
            view[f"{prefix}factor{n}"] for n in range(order)
        ]
        self.strategy = meta["strategy"]
        if self.strategy == "per-mode":
            from repro.core.sparse_tensor import SparseTensor

            self.tensor = SparseTensor(
                view[f"{prefix}indices"], view[f"{prefix}values"],
                self.shape, copy=False,
            )
            self.symbolic: Dict[int, ModeSymbolic] = {
                n: ModeSymbolic(
                    mode=n,
                    rows=view[f"{prefix}sym-rows{n}"],
                    perm=view[f"{prefix}sym-perm{n}"],
                    rowptr=view[f"{prefix}sym-rowptr{n}"],
                )
                for n in range(order)
            }
            self.outs: Dict[int, np.ndarray] = {
                n: view[f"{prefix}out{n}"] for n in range(order)
            }
        elif self.strategy == "csf":
            from repro.sparse.csf import CSFTensor

            # One rooted tree per mode, rebuilt over zero-copy views of the
            # driver's serialized level arrays — no re-sort on attach.
            self.csf_trees: Dict[int, CSFTensor] = {}
            for entry in meta["csf"]:
                n = int(entry["mode"])
                self.csf_trees[n] = CSFTensor.from_arrays(
                    self.shape,
                    entry["mode_order"],
                    [view[f"{prefix}csf{n}-fids{lvl}"] for lvl in range(order)],
                    [
                        view[f"{prefix}csf{n}-fptr{lvl}"]
                        for lvl in range(order - 1)
                    ],
                    view[f"{prefix}csf{n}-values"],
                )
            self.outs = {n: view[f"{prefix}out{n}"] for n in range(order)}
        elif self.strategy == "dimtree":
            root_id = meta["root_id"]
            self.edges: Dict[int, dict] = {e["node"]: e for e in meta["edges"]}
            self.groupings: Dict[int, FiberGrouping] = {
                nid: FiberGrouping(
                    indices=view[f"grp-idx{nid}"],
                    perm=view[f"grp-perm{nid}"],
                    segptr=view[f"grp-segptr{nid}"],
                    contiguous=bool(edge.get("contiguous", False)),
                )
                for nid, edge in self.edges.items()
            }
            self.payloads: Dict[int, np.ndarray] = {root_id: view[f"payload{root_id}"]}
            self.index_cols: Dict[int, np.ndarray] = {root_id: view["indices"]}
            for nid, grouping in self.groupings.items():
                self.payloads[nid] = view[f"payload{nid}"]
                self.index_cols[nid] = grouping.indices
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown job strategy {self.strategy!r}")

    def ttmc_rows(self, mode: int, start: int, stop: int) -> None:
        """Compute rows ``start:stop`` of ``J_mode`` into the shared output."""
        from repro.parallel.shared_ttmc import ttmc_row_block

        symbolic = self.symbolic[mode]
        block = ttmc_row_block(
            self.tensor,
            self.factors,
            mode,
            symbolic,
            np.arange(start, stop, dtype=np.int64),
            block_nnz=self.block_nnz,
            kernel=self.kernel,
        )
        self.outs[mode][symbolic.rows[start:stop]] = block

    def csf_slab(self, mode: int, start: int, stop: int) -> None:
        """Pull up root-fiber slab ``[start, stop)`` of one rooted tree.

        The same body the threaded CSF backend runs per slab
        (:func:`repro.sparse.csf_ttmc.csf_ttmc_compact`): a pure pullup over
        the slab's contiguous node ranges, column-permuted into engine
        layout, assigned to the slab's (unique, sorted) root-fiber rows of
        the shared output — row-disjoint across slabs, so no locks.
        """
        from repro.kernels import kernel_table
        from repro.sparse.csf_ttmc import (
            _level_ranges,
            _pullup,
            _to_engine_columns,
        )

        csf = self.csf_trees[mode]
        factor_arrays = [
            None if t == mode else self.factors[t]
            for t in range(len(self.shape))
        ]
        table = kernel_table(self.kernel)
        slab = _pullup(
            csf, factor_arrays, self.dtype, 0,
            _level_ranges(csf, start, stop), None, table,
        )
        block = _to_engine_columns(slab, csf, factor_arrays, 0)
        self.outs[mode][csf.fids[0][start:stop]] = block

    def edge_groups(self, node_id: int, start: int, stop: int) -> None:
        """Refine fiber groups ``start:stop`` of one dimension-tree edge."""
        edge = self.edges[node_id]
        edge_update_groups(
            self.groupings[node_id],
            start,
            stop,
            self.payloads[edge["parent"]],
            self.index_cols[edge["parent"]],
            edge["sibling_cols"],
            [self.factors[m] for m in edge["sibling_modes"]],
            edge["lo_width"],
            edge["hi_width"],
            self.payloads[node_id][start:stop],
            block_nnz=self.block_nnz,
        )


class _WorkerState:
    """Per-worker dispatch over the generation's job programs.

    A plain (single-job) generation holds exactly one program under the key
    ``None``; a batched generation holds one program per member job, keyed
    by the job's id.  Chunk descriptors carry the job key, so the shared
    work queue serves every member of the generation uniformly.
    """

    def __init__(self, view: ShmView, meta: dict) -> None:
        self.view = view
        if meta["strategy"] == "batch":
            self.programs: Dict[Optional[str], _JobProgram] = {
                job["job"]: _JobProgram(view, job, prefix=f"{job['job']}:")
                for job in meta["jobs"]
            }
        else:
            self.programs = {None: _JobProgram(view, meta)}

    def close(self) -> None:
        self.view.close()


def _generation_loop(worker_id: int, state: _WorkerState, task_q, done_q) -> None:
    """Drain chunk descriptors for one attached generation.

    Returns (with the views closed) when the sentinel ``None`` arrives —
    the end of the generation for a persistent worker, the end of life for
    a single-generation worker.
    """
    try:
        while True:
            task = task_q.get()
            if task is None:
                return
            kind, task_id, job = task[0], task[1], task[2]
            try:
                program = state.programs[job]
                if kind == "ttmc":
                    program.ttmc_rows(task[3], task[4], task[5])
                elif kind == "csf":
                    program.csf_slab(task[3], task[4], task[5])
                elif kind == "edge":
                    program.edge_groups(task[3], task[4], task[5])
                else:
                    raise ValueError(f"unknown task kind {kind!r}")
                error = None
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
            # Fault point "worker.ack": firing here (action="exit") kills the
            # worker after it did the work but before the driver hears back —
            # the scripted equivalent of a mid-task SIGKILL.
            maybe_fail("worker.ack")
            done_q.put((task_id, worker_id, error))
    finally:
        state.close()


def _worker_main(worker_id: int, specs, meta, task_q, done_q, ctrl_q=None) -> None:
    """Worker entry point.

    Without ``ctrl_q`` (a pool-owned worker) the worker attaches the given
    arena once, serves exactly one generation and exits — the original
    single-run protocol.  With ``ctrl_q`` (a :class:`PersistentWorkerCrew`
    worker) the process is long-lived: it blocks on its private control
    queue for ``("__attach__", specs, meta)`` commands, serves the
    generation until the shared work queue delivers the detach sentinel,
    acks ``"__detached__"``, and loops — amortizing process spawn and
    interpreter/NumPy import across every job a service ever runs.
    """
    if ctrl_q is None:
        try:
            state = _WorkerState(ShmView(specs), meta)
        except BaseException as exc:
            done_q.put(("__ready__", worker_id, f"{type(exc).__name__}: {exc}"))
            return
        done_q.put(("__ready__", worker_id, None))
        _generation_loop(worker_id, state, task_q, done_q)
        return
    while True:
        command = ctrl_q.get()
        if command is None or command[0] == "__stop__":
            return
        if command[0] != "__attach__":  # pragma: no cover - defensive
            continue
        _, gen_specs, gen_meta = command
        try:
            state = _WorkerState(ShmView(gen_specs), gen_meta)
        except BaseException as exc:
            done_q.put(("__ready__", worker_id, f"{type(exc).__name__}: {exc}"))
            continue
        done_q.put(("__ready__", worker_id, None))
        _generation_loop(worker_id, state, task_q, done_q)
        done_q.put(("__detached__", worker_id, None))


# --------------------------------------------------------------------------- #
# Driver side
# --------------------------------------------------------------------------- #
def _resolve_config(config, crew) -> ProcessConfig:
    """The pool config, defaulted (and size-checked later) against a crew."""
    if config is not None:
        return config
    if crew is not None:
        return ProcessConfig(num_workers=crew.num_workers)
    return ProcessConfig()


def _validate_per_mode_ranks(tensor, ranks: Sequence[int]) -> List[int]:
    """Widths of every mode's ``Y_(n)``, rejecting shrinking TRSVD ranks."""
    order = tensor.order
    widths = [
        kron_row_length([ranks[t] for t in range(order) if t != n])
        for n in range(order)
    ]
    for n in range(order):
        if ranks[n] > min(tensor.shape[n], widths[n]):
            raise ValueError(
                f"rank {ranks[n]} of mode {n} exceeds min(I_n, W_n) = "
                f"{min(tensor.shape[n], widths[n])}; the TRSVD would "
                "return fewer columns and the process backend needs "
                "fixed factor shapes"
            )
    return widths


def _put_per_mode_job(
    arena: ShmArena,
    tensor,
    symbolic: Dict[int, ModeSymbolic],
    factors: Sequence[np.ndarray],
    ranks: Sequence[int],
    dtype,
    *,
    block_nnz: Optional[int],
    kernel: str,
    prefix: str,
) -> dict:
    """Place one per-mode job's operands into the arena; return its meta.

    ``prefix`` namespaces the segment keys (empty for a single-job pool,
    ``"<job>:"`` for batch members), matching what :class:`_JobProgram`
    reads back on the worker side.
    """
    dtype = np.dtype(dtype)
    ranks = [int(r) for r in ranks]
    widths = _validate_per_mode_ranks(tensor, ranks)
    order = tensor.order
    arena.put(f"{prefix}indices", tensor.indices)
    arena.put(f"{prefix}values", np.asarray(tensor.values, dtype=dtype))
    for n in range(order):
        arena.put(f"{prefix}factor{n}", np.asarray(factors[n], dtype=dtype))
        sym = symbolic[n]
        arena.put(f"{prefix}sym-rows{n}", sym.rows)
        arena.put(f"{prefix}sym-perm{n}", sym.perm)
        arena.put(f"{prefix}sym-rowptr{n}", sym.rowptr)
        arena.zeros(f"{prefix}out{n}", (tensor.shape[n], widths[n]), dtype)
    return {
        "strategy": "per-mode",
        "shape": tuple(int(s) for s in tensor.shape),
        "ranks": tuple(ranks),
        "dtype": dtype.str,
        "block_nnz": block_nnz,
        "kernel": kernel,
    }


def _put_csf_job(
    arena: ShmArena,
    trees,
    tensor,
    factors: Sequence[np.ndarray],
    ranks: Sequence[int],
    dtype,
    *,
    block_nnz: Optional[int],
    kernel: str,
    prefix: str,
) -> Tuple[dict, Dict[int, int]]:
    """Place one CSF job's rooted trees into the arena; return (meta, roots).

    ``trees`` is a :class:`~repro.sparse.csf.CSFTensorSet` with one tree
    rooted at every mode (the lock-free layout: a root-fiber slab's output
    rows are exactly its unique, sorted root fibers).  Each tree's per-level
    ``fids``/``fptr`` arrays and its lexicographically sorted values are
    serialized once; workers rebuild zero-copy trees from the views.
    ``roots`` maps each mode to its root-fiber count — the quantity slab
    chunks are scheduled over.
    """
    dtype = np.dtype(dtype)
    ranks = [int(r) for r in ranks]
    widths = _validate_per_mode_ranks(tensor, ranks)
    order = tensor.order
    entries: List[dict] = []
    roots: Dict[int, int] = {}
    for n in range(order):
        csf = trees.tree_for(n)
        if csf.level_of(n) != 0:
            raise ValueError(
                f"the process pool needs a tree rooted at its target mode, "
                f"but mode {n}'s tree is rooted at mode {csf.mode_order[0]}; "
                "build the set with CSFTensorSet.per_mode"
            )
        for lvl in range(order):
            arena.put(f"{prefix}csf{n}-fids{lvl}", csf.fids[lvl])
        for lvl in range(order - 1):
            arena.put(f"{prefix}csf{n}-fptr{lvl}", csf.fptr[lvl])
        arena.put(f"{prefix}csf{n}-values", np.asarray(csf.values, dtype=dtype))
        arena.zeros(f"{prefix}out{n}", (tensor.shape[n], widths[n]), dtype)
        entries.append(
            {"mode": n, "mode_order": tuple(int(m) for m in csf.mode_order)}
        )
        roots[n] = csf.num_fibers(0)
    for n in range(order):
        arena.put(f"{prefix}factor{n}", np.asarray(factors[n], dtype=dtype))
    meta = {
        "strategy": "csf",
        "shape": tuple(int(s) for s in tensor.shape),
        "ranks": tuple(ranks),
        "dtype": dtype.str,
        "block_nnz": block_nnz,
        "kernel": kernel,
        "csf": entries,
    }
    return meta, roots


class PersistentWorkerCrew:
    """Long-lived worker processes serving many pool generations.

    A plain :class:`HOOIProcessPool` spawns its workers at construction and
    kills them at :meth:`~HOOIProcessPool.close` — the right lifecycle for a
    one-shot ``hooi(...)`` call, and exactly the wrong one for a service
    handling a stream of requests, where process spawn + NumPy import costs
    dominate small jobs.  A crew decouples the two lifetimes: the processes
    are spawned once (here) and each :class:`HOOIProcessPool` built with
    ``crew=`` merely *attaches* them to its shared arena (one
    ``("__attach__", specs, meta)`` command per worker over its private
    control queue) and *detaches* them on close (the shared-queue sentinel
    trick: one ``None`` per worker — a worker that took one is back on its
    control queue and cannot take a second), leaving the processes alive for
    the next generation.

    The crew is not usable concurrently: at most one generation may be
    attached at a time (the serving layer's admission batching exists to
    pack many small jobs into one generation rather than to multiplex
    generations).  A crew whose worker died — or that timed out detaching —
    is *broken*: :attr:`alive` turns false and the owner is expected to
    :meth:`close` it and build a fresh one (the serving layer's
    crash-retry path).
    """

    def __init__(
        self,
        num_workers: int = 1,
        *,
        start_method: Optional[str] = None,
        startup_timeout: float = 120.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.startup_timeout = startup_timeout
        self.generations = 0
        self._closed = False
        self._broken = False
        ctx = mp.get_context(start_method or default_start_method())
        self.task_q = ctx.Queue()
        self.done_q = ctx.Queue()
        self.ctrl_qs = [ctx.Queue() for _ in range(num_workers)]
        self.workers: List[mp.process.BaseProcess] = []
        try:
            for worker_id in range(num_workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id, None, None,
                        self.task_q, self.done_q, self.ctrl_qs[worker_id],
                    ),
                    name=f"repro-crew-worker-{worker_id}",
                    daemon=True,
                )
                proc.start()
                self.workers.append(proc)
        except BaseException:
            self.close()
            raise

    @property
    def alive(self) -> bool:
        """Whether the crew can serve another generation."""
        return (
            not self._closed
            and not self._broken
            and all(w.is_alive() for w in self.workers)
        )

    def mark_broken(self) -> None:
        """Retire the crew (a worker died or a detach timed out)."""
        self._broken = True

    def attach(self, specs, meta: dict) -> None:
        """Broadcast a generation's attach command to every worker."""
        if not self.alive:
            raise WorkerCrashError(
                "the worker crew is closed, broken or has dead workers; "
                "build a fresh crew"
            )
        for ctrl_q in self.ctrl_qs:
            ctrl_q.put(("__attach__", specs, meta))
        self.generations += 1

    def close(self) -> None:
        """Stop and reap the worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for ctrl_q in self.ctrl_qs:
            try:
                ctrl_q.put(("__stop__",))
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
        # A worker mid-generation is blocked on the shared task queue, not
        # its control queue; feed it a detach sentinel so it can exit.
        for _ in self.workers:
            try:
                self.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - defensive
                break
        for worker in self.workers:
            worker.join(timeout=2.0)
        for worker in self.workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():  # pragma: no cover - last resort
                worker.kill()
                worker.join(timeout=1.0)
        queues = [self.task_q, self.done_q, *self.ctrl_qs]
        for q in queues:
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass

    def __enter__(self) -> "PersistentWorkerCrew":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "closed" if self._closed
            else ("broken" if not self.alive else "live")
        )
        return (
            f"PersistentWorkerCrew(workers={self.num_workers}, "
            f"generations={self.generations}, {state})"
        )


@dataclass(frozen=True)
class BatchJobSpec:
    """One member of a batched per-mode pool generation.

    ``job`` is the caller-chosen key every pool call uses to address this
    member (``pool.ttmc(mode, job=...)``); it doubles as the arena
    namespace prefix, so it must be unique within the batch.  ``tensor``
    must already carry the job's value dtype (the engine's dtype policy is
    applied before the arena is built) and ``factors`` are the job's
    initial factor matrices.

    ``tensor_format`` picks the member's arena layout: ``"coo"`` (default)
    packs the COO indices plus ``symbolic`` per-mode update lists,
    ``"csf"`` packs the level arrays of ``trees`` (a
    :class:`~repro.sparse.csf.CSFTensorSet` built per-mode) instead —
    ``symbolic`` may then be empty.  Members of one batch can mix formats.
    """

    job: str
    tensor: object
    symbolic: Dict[int, ModeSymbolic]
    factors: Sequence[np.ndarray]
    ranks: Sequence[int]
    block_nnz: Optional[int] = None
    kernel: str = "numpy"
    tensor_format: str = "coo"
    trees: object = None


class HOOIProcessPool:
    """A pool of worker processes attached to one shared arena.

    Build one with :meth:`for_per_mode` (row-parallel COO ``Y_(n)`` TTMc),
    :meth:`for_csf` (root-fiber-slab pullups over shared CSF level arrays),
    :meth:`for_dimtree` (fiber-parallel dimension-tree edge updates) or
    :meth:`for_per_mode_batch` (several jobs — COO and CSF members alike —
    sharing one generation), drive it with :meth:`ttmc` /
    :meth:`dimtree_edge` / :meth:`write_factor`, and release it with
    :meth:`close` (or use it as a context manager).

    Workers either belong to the pool (spawned here, killed on close — the
    one-shot ``hooi(...)`` lifecycle) or to a caller-owned
    :class:`PersistentWorkerCrew` passed as ``crew=`` (attached on
    construction, detached — but kept alive — on close; the serving
    lifecycle).  ``mode_rows`` is keyed ``(job, mode)`` with ``job=None``
    for single-job pools.
    """

    def __init__(self, *, arena: ShmArena, meta: dict, mode_rows: Dict,
                 node_groups: Dict[int, int], config: ProcessConfig,
                 crew: Optional[PersistentWorkerCrew] = None) -> None:
        self._arena = arena
        self._meta = meta
        self._mode_rows = mode_rows
        self._node_groups = node_groups
        self.config = config
        self._crew = crew
        self._closed = False
        self._broken = False
        self._detach_needed = False
        self._task_counter = 0
        # TTMc task kind per job key: CSF members dispatch root-fiber slabs
        # ("csf"), COO members dispatch symbolic row chunks ("ttmc").
        if meta["strategy"] == "batch":
            self._ttmc_kinds = {
                j["job"]: ("csf" if j["strategy"] == "csf" else "ttmc")
                for j in meta["jobs"]
            }
        else:
            self._ttmc_kinds = {
                None: "csf" if meta["strategy"] == "csf" else "ttmc"
            }
        self.workers: List[mp.process.BaseProcess] = []
        try:
            if crew is not None:
                if crew.num_workers != config.num_workers:
                    raise ValueError(
                        f"the crew has {crew.num_workers} workers but the "
                        f"pool config asks for {config.num_workers}; size "
                        "the ProcessConfig from crew.num_workers"
                    )
                self._task_q = crew.task_q
                self._done_q = crew.done_q
                self.workers = crew.workers
                crew.attach(arena.specs, meta)
                self._detach_needed = True
                try:
                    self._wait_ready()
                except BaseException:
                    # A partial attach leaves workers split between the
                    # control and generation loops; a detach broadcast could
                    # poison a later generation, so retire the crew instead.
                    crew.mark_broken()
                    self._detach_needed = False
                    raise
                return
            ctx = mp.get_context(config.start_method or default_start_method())
            self._task_q = ctx.Queue()
            self._done_q = ctx.Queue()
            for worker_id in range(config.num_workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id, arena.specs, meta,
                        self._task_q, self._done_q, None,
                    ),
                    name=f"repro-hooi-worker-{worker_id}",
                    daemon=True,
                )
                proc.start()
                self.workers.append(proc)
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def for_per_mode(
        cls,
        tensor,
        symbolic: Dict[int, ModeSymbolic],
        factors: Sequence[np.ndarray],
        ranks: Sequence[int],
        dtype,
        *,
        config: Optional[ProcessConfig] = None,
        block_nnz: Optional[int] = None,
        kernel: str = "numpy",
        crew: Optional[PersistentWorkerCrew] = None,
    ) -> "HOOIProcessPool":
        """Pool executing the per-mode row-parallel TTMc (Algorithm 3).

        ``kernel`` selects the inner-loop tier each worker runs
        (``"numpy"`` or the compiled ``"numba"`` loops); it rides along in
        the pool metadata, so workers resolve their own dispatch table after
        attaching shared memory.  ``crew`` runs the generation on an
        existing :class:`PersistentWorkerCrew` instead of spawning workers.
        """
        config = _resolve_config(config, crew)
        dtype = np.dtype(dtype)
        ranks = [int(r) for r in ranks]
        order = tensor.order
        arena = ShmArena()
        try:
            meta = _put_per_mode_job(
                arena, tensor, symbolic, factors, ranks, dtype,
                block_nnz=block_nnz, kernel=kernel, prefix="",
            )
            mode_rows = {
                (None, n): symbolic[n].num_rows for n in range(order)
            }
            return cls(
                arena=arena, meta=meta, mode_rows=mode_rows,
                node_groups={}, config=config, crew=crew,
            )
        except BaseException:
            arena.unlink()
            raise

    @classmethod
    def for_per_mode_batch(
        cls,
        specs: Sequence[BatchJobSpec],
        dtype,
        *,
        config: Optional[ProcessConfig] = None,
        crew: Optional[PersistentWorkerCrew] = None,
    ) -> "HOOIProcessPool":
        """Pool packing several small per-mode jobs into ONE generation.

        Every member's operands land in the same arena under a
        ``<job>:``-prefixed namespace and all workers attach them in a
        single ``__attach__`` cycle — the admission batching the serving
        layer uses so a stream of small tensors costs one attach/detach per
        *batch* instead of one per job.  Drive members independently with
        ``ttmc(mode, job=...)`` / ``write_factor(mode, U, job=...)``; the
        pool itself stays single-consumer (members run one at a time).

        ``dtype`` is the default value dtype; a member whose tensor already
        carries a (supported) different dtype keeps its own — members of one
        batch need not share a precision policy.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("a batch generation needs at least one job")
        keys = [spec.job for spec in specs]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate job keys in batch: {sorted(keys)}")
        config = _resolve_config(config, crew)
        arena = ShmArena()
        try:
            jobs_meta = []
            mode_rows: Dict = {}
            for spec in specs:
                job_dtype = np.dtype(getattr(spec.tensor, "dtype", dtype))
                fmt = getattr(spec, "tensor_format", "coo") or "coo"
                if fmt == "csf":
                    if spec.trees is None:
                        raise ValueError(
                            f"batch member {spec.job!r} asks for "
                            "tensor_format='csf' but carries no CSFTensorSet "
                            "in spec.trees"
                        )
                    job_meta, roots = _put_csf_job(
                        arena, spec.trees, spec.tensor, spec.factors,
                        [int(r) for r in spec.ranks], job_dtype,
                        block_nnz=spec.block_nnz, kernel=spec.kernel,
                        prefix=f"{spec.job}:",
                    )
                    for n, num_roots in roots.items():
                        mode_rows[(spec.job, n)] = num_roots
                else:
                    job_meta = _put_per_mode_job(
                        arena, spec.tensor, spec.symbolic, spec.factors,
                        [int(r) for r in spec.ranks], job_dtype,
                        block_nnz=spec.block_nnz, kernel=spec.kernel,
                        prefix=f"{spec.job}:",
                    )
                    for n in range(spec.tensor.order):
                        mode_rows[(spec.job, n)] = spec.symbolic[n].num_rows
                job_meta["job"] = spec.job
                jobs_meta.append(job_meta)
            meta = {"strategy": "batch", "jobs": jobs_meta}
            return cls(
                arena=arena, meta=meta, mode_rows=mode_rows,
                node_groups={}, config=config, crew=crew,
            )
        except BaseException:
            arena.unlink()
            raise

    @classmethod
    def for_csf(
        cls,
        trees,
        tensor,
        factors: Sequence[np.ndarray],
        ranks: Sequence[int],
        dtype,
        *,
        config: Optional[ProcessConfig] = None,
        block_nnz: Optional[int] = None,
        kernel: str = "numpy",
        crew: Optional[PersistentWorkerCrew] = None,
    ) -> "HOOIProcessPool":
        """Pool executing root-fiber-slab CSF pullups (per-mode rooted trees).

        ``trees`` is a :class:`~repro.sparse.csf.CSFTensorSet` built with
        ``per_mode`` — one tree rooted at every mode, the layout whose TTMc
        is a pure pullup with its output rows the unique, sorted root
        fibers.  The per-level ``fids``/``fptr`` arrays and the sorted
        values of every tree go into the arena once; workers rebuild
        zero-copy :class:`~repro.sparse.csf.CSFTensor` views on attach, and
        each TTMc dispatches contiguous root-fiber slabs whose subtree is a
        contiguous node range at every level and whose output rows are
        disjoint from every other slab's — the same lock-free write
        discipline as the COO row chunks, over 0.7× the index bytes.
        """
        config = _resolve_config(config, crew)
        arena = ShmArena()
        try:
            meta, roots = _put_csf_job(
                arena, trees, tensor, factors, [int(r) for r in ranks],
                np.dtype(dtype), block_nnz=block_nnz, kernel=kernel,
                prefix="",
            )
            mode_rows = {(None, n): roots[n] for n in range(tensor.order)}
            return cls(
                arena=arena, meta=meta, mode_rows=mode_rows,
                node_groups={}, config=config, crew=crew,
            )
        except BaseException:
            arena.unlink()
            raise

    @classmethod
    def for_dimtree(
        cls,
        tree,
        tensor,
        factors: Sequence[np.ndarray],
        ranks: Sequence[int],
        dtype,
        *,
        config: Optional[ProcessConfig] = None,
        block_nnz: Optional[int] = None,
        crew: Optional[PersistentWorkerCrew] = None,
    ) -> "HOOIProcessPool":
        """Pool executing fiber-parallel dimension-tree edge updates.

        ``tree`` is a built :class:`~repro.engine.dimtree.DimensionTree`;
        its symbolic fiber groupings and every node payload are placed in
        shared memory, so the driver's tree and the workers operate on the
        same buffers (the driver keeps the version counters and decides
        *which* edges are stale; workers execute the chunks).  The root's
        index matrix and values are taken from the *tree* (not the raw
        tensor): a CSF-sourced tree's groupings reference the
        lexicographically sorted row order, and its contiguous groupings
        carry their flag into the workers so the sliced edge-update fast
        path applies there too.  For a COO-sourced tree those arrays are the
        tensor's own, so nothing changes.
        """
        config = _resolve_config(config, crew)
        dtype = np.dtype(dtype)
        ranks = [int(r) for r in ranks]
        _validate_per_mode_ranks(tensor, ranks)
        arena = ShmArena()
        try:
            arena.put("indices", np.ascontiguousarray(tree.root.index_cols))
            root_id = int(tree.root.node_id)
            arena.put(
                f"payload{root_id}",
                np.asarray(tree.root_values, dtype=dtype).reshape(-1, 1),
            )
            edges: List[dict] = []
            node_groups: Dict[int, int] = {}
            for node in tree.nodes:
                if node is tree.root:
                    continue
                parent = node.parent
                lo_width, hi_width = subset_widths(ranks, parent.lo, parent.hi)
                sib_width = kron_row_length(
                    [ranks[m] for m in node.sibling_modes]
                )
                child_width = lo_width * hi_width * sib_width
                nid = int(node.node_id)
                arena.put(f"grp-idx{nid}", node.grouping.indices)
                arena.put(f"grp-perm{nid}", node.grouping.perm)
                arena.put(f"grp-segptr{nid}", node.grouping.segptr)
                arena.zeros(f"payload{nid}", (node.num_fibers, child_width), dtype)
                edges.append({
                    "node": nid,
                    "parent": int(parent.node_id),
                    "sibling_modes": tuple(int(m) for m in node.sibling_modes),
                    "sibling_cols": tuple(int(c) for c in node.sibling_cols),
                    "lo_width": int(lo_width),
                    "hi_width": int(hi_width),
                    "contiguous": bool(node.grouping.contiguous),
                })
                node_groups[nid] = node.num_fibers
            for n in range(tensor.order):
                arena.put(f"factor{n}", np.asarray(factors[n], dtype=dtype))
            meta = {
                "strategy": "dimtree",
                "shape": tuple(int(s) for s in tensor.shape),
                "ranks": tuple(ranks),
                "dtype": dtype.str,
                "block_nnz": block_nnz,
                "root_id": root_id,
                "edges": edges,
            }
            return cls(
                arena=arena, meta=meta, mode_rows={},
                node_groups=node_groups, config=config, crew=crew,
            )
        except BaseException:
            arena.unlink()
            raise

    # -- dispatch -------------------------------------------------------- #
    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("the process pool is closed")
        if self._broken:
            raise WorkerCrashError(
                "the process pool is broken (a worker died or a task failed); "
                "close() it and build a new pool"
            )
        dead = [w for w in self.workers if not w.is_alive()]
        if dead:
            self._broken = True
            raise WorkerCrashError(
                f"{len(dead)} worker process(es) died "
                f"(exit codes {[w.exitcode for w in dead]})"
            )

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + self.config.startup_timeout
        ready = 0
        while ready < len(self.workers):
            try:
                tag, worker_id, error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if any(not w.is_alive() for w in self.workers):
                    raise WorkerCrashError(
                        "a worker process died during startup"
                    ) from None
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "worker processes did not report ready within "
                        f"{self.config.startup_timeout:.0f}s"
                    )
                continue
            if tag != "__ready__":  # pragma: no cover - defensive
                continue
            if error is not None:
                raise RuntimeError(
                    f"worker {worker_id} failed to attach shared memory: {error}"
                )
            ready += 1

    def _dispatch(self, tasks: List[Tuple]) -> None:
        """Enqueue a batch of chunk descriptors and wait for all acks."""
        self._check_usable()
        maybe_fail("pool.dispatch")
        pending = set()
        for task in tasks:
            task_id = self._task_counter
            self._task_counter += 1
            self._task_q.put((task[0], task_id) + tuple(task[1:]))
            pending.add(task_id)
        errors: List[str] = []
        while pending:
            try:
                task_id, _worker_id, error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if any(not w.is_alive() for w in self.workers):
                    self._broken = True
                    dead = [w for w in self.workers if not w.is_alive()]
                    raise WorkerCrashError(
                        f"{len(dead)} worker process(es) died mid-batch "
                        f"(exit codes {[w.exitcode for w in dead]})"
                    ) from None
                continue
            pending.discard(task_id)
            if error is not None:
                errors.append(error)
        if errors:
            self._broken = True
            raise RuntimeError(f"worker task failed: {errors[0]}")

    def _chunks(self, num_items: int):
        return make_chunks(
            num_items,
            self.config.num_workers,
            schedule=self.config.schedule,
            chunk_size=self.config.chunk_size,
        )

    # -- public operations ----------------------------------------------- #
    @staticmethod
    def _prefix(job: Optional[str]) -> str:
        return f"{job}:" if job is not None else ""

    def ttmc(self, mode: int, *, job: Optional[str] = None) -> np.ndarray:
        """Row-parallel ``Y_(mode)`` into (and returning) the shared buffer.

        ``job`` addresses one member of a batched generation
        (:meth:`for_per_mode_batch`); single-job pools omit it.  The chunks
        cover symbolic output rows for COO members and root-fiber slabs for
        CSF members — either way each chunk writes a disjoint row set.
        """
        self._check_usable()
        out = self._arena[f"{self._prefix(job)}out{mode}"]
        num_rows = self._mode_rows[(job, mode)]
        kind = self._ttmc_kinds[job]
        if num_rows:
            self._dispatch(
                [
                    (kind, job, mode, start, stop)
                    for start, stop in self._chunks(num_rows)
                ]
            )
        return out

    def dimtree_edge(self, node_id: int) -> np.ndarray:
        """Fiber-parallel refinement of one tree edge; returns the payload."""
        self._check_usable()
        payload = self._arena[f"payload{int(node_id)}"]
        num_groups = self._node_groups[int(node_id)]
        if num_groups:
            self._dispatch(
                [
                    ("edge", None, int(node_id), start, stop)
                    for start, stop in self._chunks(num_groups)
                ]
            )
        return payload

    def node_payload(self, node_id: int) -> np.ndarray:
        """The shared payload buffer of a dimension-tree node."""
        return self._arena[f"payload{int(node_id)}"]

    def write_factor(
        self, mode: int, array: np.ndarray, *, job: Optional[str] = None
    ) -> None:
        """Broadcast a refreshed factor by writing its shared segment.

        The write happens-before the next task dispatch (queue hand-off), so
        workers never read a half-updated factor.
        """
        if self._closed:
            raise RuntimeError("the process pool is closed")
        segment = self._arena[f"{self._prefix(job)}factor{mode}"]
        array = np.asarray(array, dtype=segment.dtype)
        if array.shape != segment.shape:
            raise ValueError(
                f"factor for mode {mode} has shape {array.shape}, but the "
                f"shared segment is {segment.shape}: the process backend "
                "requires fixed factor shapes across iterations"
            )
        segment[...] = array

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """OS names of the arena's segments (for leak checks in tests)."""
        return self._arena.segment_names

    # -- lifecycle ------------------------------------------------------- #
    def _close_crew_generation(self) -> None:
        """Detach the crew's workers from this arena (keep them alive).

        One ``None`` sentinel per worker ends the generation loop; each
        worker closes its views and acks ``"__detached__"``.  Waiting for
        every ack before unlinking the arena guarantees no worker still
        holds a mapping when the segments are destroyed — the no-leaked-
        ``/dev/shm`` property the service's teardown test pins down.  A
        dead or unresponsive worker makes a deterministic detach
        impossible, so the crew is retired instead (its own ``close`` reaps
        the processes).
        """
        crew = self._crew
        if not self._detach_needed:
            return
        self._detach_needed = False
        if any(not w.is_alive() for w in crew.workers):
            crew.mark_broken()
            return
        for _ in crew.workers:
            self._task_q.put(None)
        remaining = len(crew.workers)
        deadline = time.monotonic() + 10.0
        while remaining:
            try:
                tag, _worker_id, _error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if (
                    time.monotonic() > deadline
                    or any(not w.is_alive() for w in crew.workers)
                ):
                    crew.mark_broken()
                    return
                continue
            if tag == "__detached__":
                remaining -= 1
            # Anything else is a stale ack of a batch that died mid-flight;
            # drain and drop it so the next generation starts clean.

    def close(self) -> None:
        """Stop the workers and destroy the shared segments (idempotent).

        Crew-backed pools *detach* the workers instead of stopping them —
        the generation ends, the processes live on for the next one.
        """
        if self._closed:
            self._arena.unlink()
            return
        self._closed = True
        if self._crew is not None:
            try:
                self._close_crew_generation()
            finally:
                self._arena.close()
                self._arena.unlink()
            return
        for _ in self.workers:
            try:
                self._task_q.put(None)
            except (OSError, ValueError):
                break
        for worker in self.workers:
            worker.join(timeout=2.0)
        for worker in self.workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():  # pragma: no cover - last resort
                worker.kill()
                worker.join(timeout=1.0)
        for q in (getattr(self, "_task_q", None), getattr(self, "_done_q", None)):
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
        self._arena.close()
        self._arena.unlink()

    def __enter__(self) -> "HOOIProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("broken" if self._broken else "live")
        return (
            f"HOOIProcessPool(workers={len(self.workers)}, "
            f"strategy={self._meta['strategy']!r}, {state})"
        )
