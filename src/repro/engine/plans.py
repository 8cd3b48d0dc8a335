"""TTMc work plans: the symbolic state and lock-free range body of a TTMc.

In the paper's Algorithm 3 each row of ``Y_(n)`` depends only on its own
update list, so any contiguous range of work items that owns its output rows
is a task that needs no locks.  A *plan* is one such decomposition:

* :class:`COORowsPlan` — per-mode symbolic update lists; the items of mode
  ``n`` are the non-empty rows ``J_n``.
* :class:`CSFSlabPlan` — CSF fiber trees; the items of mode ``n`` are the
  root fibers of the tree rooted at ``n``.
* :class:`~repro.engine.dimtree.DimensionTree` — the memoized dimension
  tree; its keys are tree nodes and the items of a node are its fibers.

A plan computes only the non-empty rows ``J_n`` (:meth:`TTMcPlan.rows`),
as a ``|J_n| × W`` block of ``Y_(n)`` whose every row is assigned.

A plan owns its symbolic state, its item count per key (:meth:`items`), one
range body (:meth:`body`) that writes output rows no other range writes, and
its shared-arena layout: :meth:`pack` places the plan's arrays, factors and
outputs in a :class:`~repro.parallel.shm.ShmArena` on the driver, and
:func:`attach_plan` rebuilds the plan in a worker process from a
:class:`~repro.parallel.shm.ShmView` plus the small meta :meth:`pack`
returned.  The dispatchers of :mod:`repro.engine.backend` run the body
inline, on a thread team or on a process crew.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from repro.core.kron import kron_dtype, kron_row_length
from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import ModeSymbolic, symbolic_ttmc
from repro.core.ttmc import ModeStream, coo_rows_range

__all__ = [
    "TTMcPlan",
    "COORowsPlan",
    "CSFSlabPlan",
    "attach_plan",
    "parallel_symbolic",
]


def parallel_symbolic(tensor: SparseTensor, num_threads: int) -> Dict[int, ModeSymbolic]:
    """Build the symbolic data of every mode, one task per mode (parfor n)."""
    modes = list(range(tensor.order))
    if num_threads <= 1 or len(modes) == 1:
        return {mode: symbolic_ttmc(tensor, mode) for mode in modes}
    with ThreadPoolExecutor(max_workers=min(num_threads, len(modes))) as pool:
        futures = {mode: pool.submit(symbolic_ttmc, tensor, mode) for mode in modes}
        return {mode: fut.result() for mode, fut in futures.items()}


class TTMcPlan:
    """Shared state and arena layout of every plan.

    ``factors`` are the matrices the body reads and ``outs[mode]`` the
    compact ``|J_n| × W`` block it writes; the dispatcher binds both per
    call on the driver, and :meth:`pack` / :func:`attach_plan` bind them to
    shared segments for a process crew.  ``ranks`` size those segments and
    are needed only to pack.
    """

    #: Registry key a worker rebuilds the plan from (see :func:`attach_plan`).
    kind = ""

    def __init__(self, shape, ranks=None, *, kernel="numpy") -> None:
        self.shape = tuple(int(s) for s in shape)
        self.order = len(self.shape)
        self.ranks = None if ranks is None else tuple(int(r) for r in ranks)
        self.kernel = kernel or "numpy"
        self.factors: List[Optional[np.ndarray]] = [None] * self.order
        self.outs: Dict[int, np.ndarray] = {}

    @classmethod
    def build(cls, tensor: SparseTensor, ranks, options, threads: int = 1):
        """The plan for an engine run: symbolic state built over ``tensor``."""
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the plan's nonzeros (the engine's dtype policy)."""
        raise NotImplementedError

    def rows(self, mode: int) -> np.ndarray:
        """``J_n``: the sorted rows of ``Y_(mode)`` that :meth:`ttmc` returns."""
        raise NotImplementedError

    def items(self, key) -> int:
        """Number of work items of ``key`` (a mode, or a tree node)."""
        raise NotImplementedError

    def body(self, key, start: int, stop: int, workspace=None) -> None:
        """Compute items ``[start, stop)`` of ``key`` into their own rows.

        ``workspace`` is the engine's pool; only the driver thread passes
        one (it is not thread-safe).
        """
        raise NotImplementedError

    def ttmc(self, mode: int, run, workspace=None) -> np.ndarray:
        """The ``|J_n| × W`` block of ``Y_(mode)``: every range via ``run(key)``.

        Written into the plan's shared segment once packed, else into a
        ``workspace`` buffer (tag ``ttmc-out-<mode>``) or one of its own.
        """
        shape, dtype = self._block_layout(mode)
        out = self.outs.get(mode)
        if workspace is not None:
            out = workspace.take(shape, dtype, tag=f"ttmc-out-{mode}")
        elif out is None or out.shape != shape or out.dtype != dtype:
            out = np.empty(shape, dtype)
        self.outs[mode] = out
        run(mode)
        return out

    def _block_layout(self, mode: int):
        """Shape and dtype of ``mode``'s block under the bound factors."""
        others = [f for t, f in enumerate(self.factors) if t != mode]
        width = kron_row_length([f.shape[1] for f in others])
        return (self.rows(mode).shape[0], width), kron_dtype(
            np.empty(0, self.dtype), *others
        )

    def factor_updated(self, mode: int) -> None:
        """``U_mode`` was replaced (plans caching factor products react)."""

    # -- shared-arena layout --------------------------------------------- #
    def pack(self, arena) -> dict:
        """Place factors and outputs in ``arena``; return the attach meta.

        Subclasses put their symbolic arrays first and extend the meta.
        Afterwards the driver-side plan reads and writes the shared
        segments, exactly like the workers' rebuilt copies.
        """
        if self.ranks is None:
            raise ValueError("packing a plan into shared memory needs its ranks")
        for n in range(self.order):
            width = kron_row_length([self.ranks[t] for t in range(self.order) if t != n])
            self.factors[n] = arena.zeros(
                f"factor{n}", (self.shape[n], self.ranks[n]), self.dtype
            )
            self.outs[n] = arena.create(
                f"out{n}", (self.rows(n).shape[0], width), self.dtype
            )
        return {
            "kind": self.kind,
            "shape": self.shape,
            "ranks": self.ranks,
            "kernel": self.kernel,
        }

    def _attach_buffers(self, view) -> "TTMcPlan":
        self.factors = [view[f"factor{n}"] for n in range(self.order)]
        self.outs = {n: view[f"out{n}"] for n in range(self.order)}
        return self


def attach_plan(view, meta: dict) -> TTMcPlan:
    """Rebuild a packed plan over a worker's views of the shared arena."""
    from repro.engine.dimtree import DimensionTree

    kinds = {cls.kind: cls for cls in (COORowsPlan, CSFSlabPlan, DimensionTree)}
    return kinds[meta["kind"]].attach(view, meta)


class COORowsPlan(TTMcPlan):
    """Per-mode update lists over COO storage; items are the rows ``J_n``.

    The body is :func:`repro.core.ttmc.coo_rows_range`: a range slices
    ``perm[rowptr[start]:rowptr[stop]]`` and writes rows ``start..stop`` of
    the compact block in place.

    A mode's update lists may cover only some of the tensor's nonzeros: a
    distributed rank's plan holds those of the rows it computes.

    The numpy tier also keeps each mode's nonzeros in update-list order, a
    :class:`~repro.core.ttmc.ModeStream` in :attr:`streams`: the other
    modes' index columns (:attr:`index_dtype`, int32 when every mode size
    fits) and the values, Σ_n ``symbolic[n].nnz · ((N − 1) · 4 +
    itemsize)`` bytes in all (``N · nnz · …`` on a single node).  Nothing
    fills them at set-up.  A mode's first :meth:`ttmc` allocates its stream
    and every range fills its own slice with the gather through ``perm`` it
    needs anyway; once every range has run, :meth:`ttmc` sets the mode's
    :attr:`filled` flag, and every later TTMc of the mode reads contiguous
    stream slices.  A TTMc that fails leaves the flag unset.  The numba
    tier reads ``perm`` and keeps no streams.
    """

    kind = "coo"

    def __init__(self, tensor: SparseTensor, symbolic: Dict[int, ModeSymbolic],
                 ranks=None, *, kernel="numpy") -> None:
        super().__init__(tensor.shape, ranks, kernel=kernel)
        self.tensor = tensor
        self.symbolic = symbolic
        fits = max(self.shape, default=0) <= np.iinfo(np.int32).max
        self.index_dtype = np.dtype(np.int32 if fits else np.int64)
        self.streams: Dict[int, ModeStream] = {}
        self.filled = np.zeros(self.order, dtype=bool)

    @classmethod
    def build(cls, tensor, ranks, options, threads=1):
        return cls(tensor, parallel_symbolic(tensor, threads), ranks,
                   kernel=options.kernel)

    @property
    def dtype(self) -> np.dtype:
        return self.tensor.values.dtype

    def rows(self, mode: int) -> np.ndarray:
        return self.symbolic[mode].rows

    def items(self, mode: int) -> int:
        return self.symbolic[mode].num_rows

    def body(self, mode: int, start: int, stop: int, workspace=None) -> None:
        coo_rows_range(
            self.tensor, self.factors, mode, self.symbolic[mode], start, stop,
            self.outs[mode], compact=True, kernel=self.kernel,
            stream=self.streams.get(mode), filled=bool(self.filled[mode]),
        )

    def ttmc(self, mode: int, run, workspace=None) -> np.ndarray:
        if self.kernel == "numpy" and mode not in self.streams:
            self.streams[mode] = self._new_stream(mode)
        result = super().ttmc(mode, run, workspace=workspace)
        self.filled[mode] = mode in self.streams
        return result

    def _new_stream(self, mode: int, arena=None) -> ModeStream:
        """An unfilled stream of ``mode``: shared segments in ``arena`` if given."""
        nnz = self.symbolic[mode].nnz
        cols, values = (self.order - 1, nnz), (nnz,)
        if arena is None:
            return ModeStream(
                np.empty(cols, self.index_dtype), np.empty(values, self.dtype)
            )
        return ModeStream(
            arena.create(f"stream{mode}-cols", cols, self.index_dtype),
            arena.create(f"stream{mode}-values", values, self.dtype),
        )

    def pack(self, arena) -> dict:
        arena.put("indices", self.tensor.indices)
        arena.put("values", self.tensor.values)
        for n, sym in self.symbolic.items():
            arena.put(f"sym-rows{n}", sym.rows)
            arena.put(f"sym-perm{n}", sym.perm)
            arena.put(f"sym-rowptr{n}", sym.rowptr)
        if self.kernel == "numpy":
            # Unfilled shared streams: the first TTMc's ranges fill them in
            # the workers, and the driver publishes each mode's flag.
            self.streams = {n: self._new_stream(n, arena) for n in self.symbolic}
            self.filled = arena.zeros("stream-filled", (self.order,), bool)
        return super().pack(arena)

    @classmethod
    def attach(cls, view, meta: dict) -> "COORowsPlan":
        shape = tuple(meta["shape"])
        tensor = SparseTensor(view["indices"], view["values"], shape, copy=False)
        symbolic = {
            n: ModeSymbolic(
                mode=n,
                rows=view[f"sym-rows{n}"],
                perm=view[f"sym-perm{n}"],
                rowptr=view[f"sym-rowptr{n}"],
            )
            for n in range(len(shape))
        }
        plan = cls(tensor, symbolic, meta["ranks"], kernel=meta["kernel"])
        if "stream-filled" in view:
            plan.streams = {
                n: ModeStream(view[f"stream{n}-cols"], view[f"stream{n}-values"])
                for n in symbolic
            }
            plan.filled = view["stream-filled"]
        return plan._attach_buffers(view)


class CSFSlabPlan(TTMcPlan):
    """CSF fiber trees; items are root-fiber slabs of mode ``n``'s tree.

    A slab's subtree is a contiguous node range at every level and its
    output rows are exactly its root fibers (``J_n``), so slab ``[start,
    stop)`` writes rows ``start..stop`` of the block, lock-free
    (:func:`repro.sparse.csf_ttmc.csf_ttmc_compact` with ``roots=``).
    ``trees`` is a :class:`~repro.sparse.csf.CSFTensorSet` whose tree ``n``
    is rooted at mode ``n``: the one :meth:`build` makes, or a preset
    memory-mapped set.
    """

    kind = "csf"

    def __init__(self, trees, ranks=None, *, kernel="numpy") -> None:
        super().__init__(trees.tree_for(0).shape, ranks, kernel=kernel)
        self.trees = trees

    @classmethod
    def build(cls, tensor, ranks, options, threads=1):
        from repro.sparse import CSFTensorSet

        return cls(CSFTensorSet.per_mode(tensor, num_threads=threads), ranks,
                   kernel=options.kernel)

    @property
    def dtype(self) -> np.dtype:
        return self.trees.tree_for(0).values.dtype

    def rows(self, mode: int) -> np.ndarray:
        return self.trees.tree_for(mode).target_rows(mode)

    def items(self, mode: int) -> int:
        return self.trees.tree_for(mode).num_fibers(0)

    def body(self, mode: int, start: int, stop: int, workspace=None) -> None:
        from repro.sparse import csf_ttmc_compact

        csf_ttmc_compact(
            self.trees.tree_for(mode), self.factors, mode, workspace=workspace,
            kernel=self.kernel, roots=(start, stop),
            out=self.outs[mode][start:stop],
        )

    def pack(self, arena) -> dict:
        mode_orders = []
        for n in range(self.order):
            csf = self.trees.tree_for(n)
            for level in range(self.order):
                arena.put(f"csf{n}-fids{level}", csf.fids[level])
            for level in range(self.order - 1):
                arena.put(f"csf{n}-fptr{level}", csf.fptr[level])
            arena.put(f"csf{n}-values", csf.values)
            mode_orders.append(tuple(int(m) for m in csf.mode_order))
        return dict(super().pack(arena), mode_orders=mode_orders)

    @classmethod
    def attach(cls, view, meta: dict) -> "CSFSlabPlan":
        from repro.sparse.csf import CSFTensor, CSFTensorSet

        shape = tuple(meta["shape"])
        order = len(shape)
        # Zero-copy trees over the driver's serialized level arrays.
        trees = {
            n: CSFTensor.from_arrays(
                shape,
                meta["mode_orders"][n],
                [view[f"csf{n}-fids{lvl}"] for lvl in range(order)],
                [view[f"csf{n}-fptr{lvl}"] for lvl in range(order - 1)],
                view[f"csf{n}-values"],
            )
            for n in range(order)
        }
        plan = cls(CSFTensorSet(trees), meta["ranks"], kernel=meta["kernel"])
        return plan._attach_buffers(view)

