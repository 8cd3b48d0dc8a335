"""Execution backends for the unified HOOI engine.

The engine (:mod:`repro.engine.driver`) owns the *iteration state machine* —
init, symbolic reuse, the per-mode sweep, core formation, fit tracking and
convergence.  What varies between the sequential, shared-memory and
distributed drivers is only *how* the three heavy steps are executed:

* the numeric TTMc of a mode (``compute_ttmc``),
* the truncated SVD refreshing that mode's factor (``update_factor``),
* the core-tensor formation from the last mode's TTMc (``form_core``),

plus where the tensor norm comes from and how the initial factors are
produced.  :class:`ExecutionBackend` is that seam.  The engine calls the
hooks in a fixed order; backends may keep per-run state (symbolic data,
communicators, clocks) between calls.

Call order per run::

    prepare_tensor -> initial_factors -> prepare ->
    [ on_iteration_start ->
        ( on_mode_start -> compute_ttmc -> update_factor -> on_mode_end )*N ->
        form_core -> on_iteration_end ]* -> (fit/convergence in the engine)
    -> finalize   (always, success or failure)

Three backends live here: :class:`SequentialBackend` (the paper's Algorithm
1/3 without ``parfor``), :class:`ThreadedBackend` (Algorithm 3: parallel
symbolic, row-parallel lock-free numeric TTMc on threads) and
:class:`ProcessBackend` (the same decomposition on worker *processes* with
zero-copy shared memory — true multicore, GIL-free).  The distributed
per-rank backend lives in :mod:`repro.distributed.dist_hooi` next to the
plan/exchange machinery it drives, and the baselines provide TTM-chain (MET)
and dense (Gram) backends — all drivers share this one loop.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hosvd import initialize_factors
from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import ModeSymbolic, symbolic_ttmc
from repro.core.trsvd import TRSVDResult, truncated_svd
from repro.core.ttmc import ttmc_matricized
from repro.core.tucker import core_from_ttmc
from repro.core.kron import kron_row_length

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "ThreadedBackend",
    "ProcessBackend",
    "CSFBackend",
    "ThreadedCSFBackend",
    "ProcessCSFBackend",
    "engine_kernel",
    "trsvd_kwargs",
    "parallel_symbolic",
    "symbolic_row_positions",
    "gather_present_rows",
]


def gather_present_rows(
    sorted_rows: np.ndarray,
    payload: np.ndarray,
    wanted: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Gather ``payload`` rows for ``wanted`` global indices, zeroing absentees.

    ``sorted_rows`` maps payload row ``i`` to the global index it holds
    (sorted ascending, as every compact TTMc form produces); ``out[p]``
    receives ``payload[i]`` where ``sorted_rows[i] == wanted[p]``, and zeros
    when ``wanted[p]`` is absent — a global row with no local nonzeros
    contributes nothing.  This is the one membership-gather idiom shared by
    the compact row-block seams (dimension-tree leaves, CSF compact blocks);
    :func:`symbolic_row_positions` is its strict sibling that *raises* on
    absent rows instead.
    """
    if sorted_rows.shape[0] == 0:
        out[:] = 0
        return out
    positions = np.searchsorted(sorted_rows, wanted)
    clipped = np.minimum(positions, sorted_rows.shape[0] - 1)
    present = sorted_rows[clipped] == wanted
    out[present] = payload[positions[present]]
    if not present.all():
        out[~present] = 0
    return out


def engine_kernel(eng) -> str:
    """The engine's configured kernel tier (``"numpy"`` when unset).

    All backends route their numeric TTMc calls through this accessor, so
    the ``kernel`` axis composes with every execution model without any
    backend growing a constructor knob — validation already happened in
    :meth:`HOOIOptions.validate`.
    """
    return getattr(eng.options, "kernel", "numpy")


def trsvd_kwargs(options) -> dict:
    """Solver keyword arguments implied by :class:`HOOIOptions`.

    The Lanczos solver takes the tolerance and seed; the randomized
    (Halko-style) range finder is seeded for reproducibility; the dense and
    Gram baselines take no knobs.
    """
    if options.trsvd_method == "lanczos":
        return {"tol": options.trsvd_tol, "seed": options.seed}
    if options.trsvd_method == "randomized":
        return {"seed": options.seed}
    return {}


def symbolic_row_positions(symbolic: ModeSymbolic, rows: np.ndarray) -> np.ndarray:
    """Positions of global row indices inside a mode's sorted ``J_n``.

    ``rows`` must be sorted and every entry must be a non-empty row of the
    mode (the distributed plans guarantee it by intersecting with ``J_n``);
    a row outside ``J_n`` raises instead of silently mapping to a neighbour.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    positions = np.searchsorted(symbolic.rows, rows).astype(np.int64, copy=False)
    if symbolic.num_rows:
        clipped = np.minimum(positions, symbolic.num_rows - 1)
        valid = (positions < symbolic.num_rows) & (symbolic.rows[clipped] == rows)
    else:
        valid = np.zeros(rows.shape[0], dtype=bool)
    if not valid.all():
        missing = rows[~valid]
        raise ValueError(
            f"rows {missing[:5].tolist()} are not non-empty rows of mode "
            f"{symbolic.mode} (|J_n| = {symbolic.num_rows})"
        )
    return positions


def parallel_symbolic(tensor: SparseTensor, num_threads: int) -> Dict[int, ModeSymbolic]:
    """Build the symbolic data of every mode, one task per mode (parfor n)."""
    modes = list(range(tensor.order))
    if num_threads <= 1 or len(modes) == 1:
        return {mode: symbolic_ttmc(tensor, mode) for mode in modes}
    with ThreadPoolExecutor(max_workers=min(num_threads, len(modes))) as pool:
        futures = {mode: pool.submit(symbolic_ttmc, tensor, mode) for mode in modes}
        return {mode: fut.result() for mode, fut in futures.items()}


class ExecutionBackend:
    """How one HOOI engine run executes its heavy steps.

    The base class implements the sequential single-process behaviour; the
    engine is usable with it directly (``SequentialBackend`` only adds the
    name).  Subclasses override the pieces they execute differently and may
    use the no-op iteration/mode hooks to maintain clocks or communication
    statistics.
    """

    name = "sequential"

    # -- setup ----------------------------------------------------------- #
    def prepare_tensor(self, eng) -> None:
        """Apply the engine's dtype policy to the input tensor."""
        if isinstance(eng.tensor, SparseTensor):
            eng.tensor = eng.tensor.astype(eng.dtype)

    def tensor_norm(self, eng) -> float:
        """Frobenius norm of the full input tensor."""
        return eng.tensor.norm()

    def initial_factors(self, eng) -> List[np.ndarray]:
        """Produce the initial factor matrices (cast to dtype by the engine)."""
        return initialize_factors(
            eng.tensor, eng.ranks, init=eng.options.init, seed=eng.options.seed
        )

    def prepare(self, eng) -> None:
        """Build per-run reusable state (the symbolic TTMc data)."""
        self.symbolic = {
            mode: symbolic_ttmc(eng.tensor, mode) for mode in range(eng.order)
        }

    # -- the three heavy steps ------------------------------------------- #
    def _pooled_out(self, eng, mode: int) -> np.ndarray:
        """The pooled ``(I_n, ∏R_t)`` output buffer for this mode's TTMc.

        Buffers are keyed per mode and fully zeroed only on their first use
        in a run; afterwards the numeric kernels clear (or overwrite) just
        the ``|J_n|`` touched rows, so steady-state sweeps never memset the
        full ``I_n × W`` matrix — measurable on hypersparse modes.  The
        per-run set of primed buffers lives on the engine
        (``eng._primed_ttmc_out``), which :meth:`HOOIEngine.run` resets.
        """
        width = kron_row_length(
            [eng.factors[t].shape[1] for t in range(eng.order) if t != mode]
        )
        buffer = eng.workspace.take(
            (eng.tensor.shape[mode], width), eng.dtype, tag=f"ttmc-out-{mode}"
        )
        primed = getattr(eng, "_primed_ttmc_out", None)
        if primed is None:
            primed = eng._primed_ttmc_out = set()
        key = (mode, buffer.shape, buffer.dtype)
        if key not in primed:
            buffer[...] = 0
            primed.add(key)
        return buffer

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        """Numeric TTMc of ``mode`` into a pooled ``(I_n, ∏R_t)`` buffer."""
        return ttmc_matricized(
            eng.tensor,
            eng.factors,
            mode,
            symbolic=self.symbolic[mode],
            block_nnz=eng.options.block_nnz,
            out=self._pooled_out(eng, mode),
            # _pooled_out guarantees rows outside J_n are zero, so only the
            # touched rows need clearing between sweeps.
            zero="touched",
            kernel=engine_kernel(eng),
        )

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        """Compact TTMc block: ``Y_(mode)`` restricted to the given rows.

        ``rows`` is a sorted array of global mode-``mode`` indices, each a
        non-empty row of the engine's tensor (``rows ⊆ J_mode``); the result
        has shape ``(len(rows), ∏_{t≠mode} R_t)`` with row ``p`` holding
        ``Y_(mode)(rows[p], :)``.  This is the rank-scoped seam the
        distributed driver composes with: each simulated MPI rank computes
        only its owned/local rows through whatever execution model and TTMc
        strategy the options select, reusing this backend over the rank's
        local tensor.
        """
        from repro.parallel.shared_ttmc import ttmc_row_block

        return ttmc_row_block(
            eng.tensor,
            eng.factors,
            mode,
            self.symbolic[mode],
            symbolic_row_positions(self.symbolic[mode], rows),
            block_nnz=eng.options.block_nnz,
            kernel=engine_kernel(eng),
        )

    def update_factor(
        self, eng, mode: int, y_mat: np.ndarray
    ) -> Tuple[np.ndarray, Optional[TRSVDResult]]:
        """Refresh ``U_mode`` from ``Y_(mode)`` via the configured TRSVD."""
        result = truncated_svd(
            y_mat,
            eng.ranks[mode],
            method=eng.options.trsvd_method,
            **trsvd_kwargs(eng.options),
        )
        return np.asarray(result.left, dtype=eng.dtype), result

    def notify_factor_updated(self, eng, mode: int) -> None:
        """A factor was replaced *outside* :meth:`update_factor`.

        Backends caching state derived from the factors (the dimension
        tree's memoized partial chains) invalidate it here.  The distributed
        per-rank backend calls this after its distributed TRSVD + factor-row
        exchange replaced ``U_mode``, since the rank-local TTMc backend never
        sees that update otherwise.
        """

    def form_core(self, eng, last_ttmc: np.ndarray) -> np.ndarray:
        """Fold the last mode's TTMc into the core tensor (one small GEMM)."""
        return core_from_ttmc(last_ttmc, eng.factors[-1], eng.ranks)

    # -- hooks (no-ops by default) --------------------------------------- #
    def on_iteration_start(self, eng, iteration: int) -> None:
        pass

    def on_iteration_end(self, eng, iteration: int) -> None:
        pass

    def on_mode_start(self, eng, mode: int) -> None:
        pass

    def on_mode_end(self, eng, mode: int) -> None:
        pass

    def finalize(self, eng) -> None:
        """Release per-run resources (called exactly once, success or not)."""
        pass


class SequentialBackend(ExecutionBackend):
    """Single-threaded execution — the reference everything is validated against."""

    name = "sequential"


class ThreadedBackend(ExecutionBackend):
    """Shared-memory execution (the paper's Algorithm 3).

    The symbolic step runs one task per mode; the numeric TTMc distributes
    the non-empty rows ``J_n`` over worker threads with the configured
    schedule (lock-free: each row is written by exactly one worker).  The
    TRSVD and core GEMM are BLAS-parallel as in the sequential backend.
    """

    name = "threaded"

    def __init__(self, config=None) -> None:
        from repro.parallel.parallel_for import ParallelConfig

        self.config = config or ParallelConfig()

    def prepare(self, eng) -> None:
        self.symbolic = parallel_symbolic(eng.tensor, self.config.num_threads)

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        from repro.parallel.shared_ttmc import parallel_ttmc_matricized

        return parallel_ttmc_matricized(
            eng.tensor,
            eng.factors,
            mode,
            symbolic=self.symbolic[mode],
            config=self.config,
            block_nnz=eng.options.block_nnz,
            out=self._pooled_out(eng, mode),
            # Every J_n row is assigned and _pooled_out keeps the rest zero,
            # so no zeroing pass is needed at all.
            zero="none",
            kernel=engine_kernel(eng),
        )

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        from repro.parallel.shared_ttmc import parallel_ttmc_row_block

        return parallel_ttmc_row_block(
            eng.tensor,
            eng.factors,
            mode,
            self.symbolic[mode],
            symbolic_row_positions(self.symbolic[mode], rows),
            config=self.config,
            block_nnz=eng.options.block_nnz,
            kernel=engine_kernel(eng),
        )


class CSFBackend(SequentialBackend):
    """Sequential execution over Compressed Sparse Fiber storage.

    ``prepare`` compresses the engine's tensor into CSF trees
    (:class:`repro.sparse.csf.CSFTensorSet`) instead of building per-mode
    update lists; ``compute_ttmc`` then serves each mode's ``Y_(n)`` as a
    fiber-segment sweep (:func:`repro.sparse.csf_ttmc.csf_ttmc_matricized`)
    — factor rows gathered once per merged fiber, partial products reduced
    over fiber extents with :func:`repro.core.kron.segment_kron_sum`.
    ``trees`` selects the
    layout policy: ``"per-mode"`` (default) builds one tree rooted at every
    mode, the fastest configuration at ``order``× the index memory;
    ``"shared"`` builds a single shortest-mode-first tree reused for every
    mode — minimal memory, with deep target modes served by the slower
    pushdown/pullup pass.
    """

    name = "csf"

    #: Tree layout policies ``__init__`` accepts.
    TREE_POLICIES = ("per-mode", "shared")

    def __init__(self, trees: str = "per-mode", *, tensors=None) -> None:
        if trees not in self.TREE_POLICIES:
            raise ValueError(
                f"unknown CSF tree policy {trees!r}: expected one of "
                f"{self.TREE_POLICIES}"
            )
        self.trees = trees
        # A pre-built CSFTensorSet (e.g. memory-mapped trees loaded by the
        # out-of-core driver) skips the per-run compression in ``prepare``.
        self._preset_tensors = tensors
        self.tensors = tensors

    def prepare(self, eng) -> None:
        from repro.sparse import CSFTensorSet

        if self._preset_tensors is not None:
            self.tensors = self._preset_tensors
        elif self.trees == "per-mode":
            config = self._ttmc_config()
            self.tensors = CSFTensorSet.per_mode(
                eng.tensor,
                num_threads=config.num_threads if config is not None else 1,
            )
        else:
            self.tensors = CSFTensorSet.shared_tree(eng.tensor)

    def _ttmc_config(self):
        """Thread configuration for the fiber sweeps (None = inline)."""
        return None

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        from repro.sparse import csf_ttmc_matricized

        return csf_ttmc_matricized(
            self.tensors.tree_for(mode),
            eng.factors,
            mode,
            out=self._pooled_out(eng, mode),
            config=self._ttmc_config(),
            # Every J_n row is assigned and _pooled_out keeps the rest zero.
            zero="none",
            kernel=engine_kernel(eng),
        )

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        """Compact TTMc block for a sorted set of global rows.

        The fiber sweep already produces ``Y_(n)`` in compact ``(J_n, ∏R_t)``
        form, so serving a rank's owned/local rows is one sorted gather —
        rows without local nonzeros come back zero, mirroring the dimension
        tree's ``local_rows`` contract.
        """
        from repro.sparse import csf_ttmc_compact

        tree = self.tensors.tree_for(mode)
        all_rows, block = csf_ttmc_compact(
            tree,
            eng.factors,
            mode,
            workspace=eng.workspace,
            config=self._ttmc_config(),
            kernel=engine_kernel(eng),
        )
        rows = np.asarray(rows, dtype=np.int64)
        # The gather destination is pooled like the sweep's own buffers, so
        # steady-state rank-local sweeps stop allocating entirely.
        out = eng.workspace.take(
            (rows.shape[0], block.shape[1]), block.dtype,
            tag=f"csf-rows-out-{mode}",
        )
        return gather_present_rows(all_rows, block, rows, out)


class ThreadedCSFBackend(CSFBackend):
    """Shared-memory execution over CSF storage.

    The numeric sweep distributes contiguous *root-fiber slabs* over worker
    threads with the configured ``make_chunks`` schedule.  A slab's subtree
    is a contiguous node range at every level and its output rows are
    exactly its root fibers, so — with the per-mode rooted trees this
    backend always builds — no two workers ever write the same ``Y_(n)``
    row: the paper's lock-free row decomposition, applied to fibers.
    """

    name = "threaded-csf"

    def __init__(self, config=None) -> None:
        from repro.parallel.parallel_for import ParallelConfig

        # Root-fiber slabs partition the output rows only when every tree
        # is rooted at its target mode, so the policy is fixed.
        super().__init__(trees="per-mode")
        self.config = config or ParallelConfig()

    def _ttmc_config(self):
        return self.config


class ProcessCSFBackend(CSFBackend):
    """True-multicore execution over Compressed Sparse Fiber storage.

    The driver builds the per-mode rooted trees once (thread-overlapped,
    like the per-mode symbolic step), serializes their level arrays into a
    shared arena (:meth:`~repro.parallel.process_pool.HOOIProcessPool.for_csf`),
    and dispatches every TTMc as contiguous root-fiber slabs to the worker
    pool — a slab's output rows are exactly its unique, sorted root fibers,
    so workers write lock-free just as in the COO row decomposition.
    Refreshed factors are broadcast by writing their shared segment,
    mirroring :class:`ProcessBackend`.

    ``num_workers <= 1`` degenerates to the sequential CSF backend: no
    worker processes are spawned and no shared memory is allocated.
    """

    name = "process-csf"

    def __init__(self, config=None) -> None:
        from repro.parallel.process_pool import ProcessConfig

        # Root-fiber slabs partition the output rows only when every tree
        # is rooted at its target mode, so the policy is fixed (the same
        # constraint as the threaded CSF backend).
        super().__init__(trees="per-mode")
        self.config = config or ProcessConfig()
        self.pool = None

    def prepare(self, eng) -> None:
        from repro.sparse import CSFTensorSet

        self.tensors = CSFTensorSet.per_mode(
            eng.tensor, num_threads=self.config.num_workers
        )
        if self.config.num_workers <= 1:
            return
        from repro.parallel.process_pool import HOOIProcessPool

        self.pool = HOOIProcessPool.for_csf(
            self.tensors,
            eng.tensor,
            eng.factors,
            eng.ranks,
            eng.dtype,
            config=self.config,
            block_nnz=eng.options.block_nnz,
            kernel=engine_kernel(eng),
        )

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        if self.pool is None:
            return super().compute_ttmc(eng, mode)
        return self.pool.ttmc(mode)

    def update_factor(self, eng, mode: int, y_mat: np.ndarray):
        new_factor, stats = super().update_factor(eng, mode, y_mat)
        if self.pool is not None:
            self.pool.write_factor(mode, new_factor)
        return new_factor, stats

    def finalize(self, eng) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


class ProcessBackend(SequentialBackend):
    """True-multicore execution: worker processes + zero-copy shared memory.

    The decomposition is exactly the paper's Algorithm 3 — the non-empty
    rows ``J_n`` are chunked with an OpenMP-like schedule and each chunk is
    one lock-free task — but tasks run on a persistent pool of worker
    *processes* (:class:`~repro.parallel.process_pool.HOOIProcessPool`), so
    the hot gather/Kronecker/segment-sum work escapes the GIL and really
    uses multiple cores.  The tensor, symbolic structures, factors and the
    ``Y_(n)`` buffers live in ``multiprocessing.shared_memory`` segments
    that workers attach once at pool startup; only tiny ``(mode, row_chunk)``
    descriptors cross process boundaries, and refreshed factors are
    broadcast by writing their shared segment after each TRSVD.

    ``num_workers <= 1`` degenerates to the sequential backend: no worker
    processes are spawned and no shared memory is allocated.
    """

    name = "process"

    def __init__(self, config=None) -> None:
        from repro.parallel.process_pool import ProcessConfig

        self.config = config or ProcessConfig()
        self.pool = None

    def prepare(self, eng) -> None:
        if self.config.num_workers <= 1:
            super().prepare(eng)
            return
        from repro.parallel.process_pool import HOOIProcessPool

        self.symbolic = parallel_symbolic(eng.tensor, self.config.num_workers)
        self.pool = HOOIProcessPool.for_per_mode(
            eng.tensor,
            self.symbolic,
            eng.factors,
            eng.ranks,
            eng.dtype,
            config=self.config,
            block_nnz=eng.options.block_nnz,
            kernel=engine_kernel(eng),
        )

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        if self.pool is None:
            return super().compute_ttmc(eng, mode)
        return self.pool.ttmc(mode)

    def update_factor(self, eng, mode: int, y_mat: np.ndarray):
        new_factor, stats = super().update_factor(eng, mode, y_mat)
        if self.pool is not None:
            self.pool.write_factor(mode, new_factor)
        return new_factor, stats

    def finalize(self, eng) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
