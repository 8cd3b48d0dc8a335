"""Dimension-tree TTMc: memoized partial TTM chains over a binary mode tree.

The per-mode backend recomputes each mode's (N−1)-factor TTMc from scratch —
N chains of N−1 multiplies per HOOI sweep, O(N²) mode multiplications.  Kaya's
dimension-tree line of work observes that the chains overlap pairwise: a
binary tree over the mode set lets every internal node cache the partial
chain shared by all the leaves below it, cutting the per-sweep multiply count
to O(N log N).

Structure
---------
Each :class:`DimTreeNode` owns a contiguous *free* mode range ``[lo, hi]``
and represents the input tensor multiplied by the factors of every *other*
mode.  The root (free = all modes) is the raw tensor; a node's two children
split its range in half, each refining the parent's chain by the sibling's
modes; the leaf for mode ``n`` (free = ``{n}``) holds exactly the matricized
TTMc ``Y_(n)`` rows the factor update needs: its payload *is* the
``|J_n| × W`` block the engine reads.  Values are *semi-sparse
intermediates* (:mod:`repro.core.subset_ttmc`): the distinct index tuples
over the free modes (fibers, merged once symbolically per edge) paired with
a dense payload over the multiplied ranks.  An edge update sums
``parent payload ⊗ sibling factor rows`` over each child fiber's parent
fibers as CSR sparse × dense products written straight into the child
payload (:func:`~repro.core.subset_ttmc.edge_update_groups`) — the segment
sums of the per-mode kernels; a root edge is exactly a COO TTMc block.

Caching and invalidation
------------------------
Every factor carries a version counter; each cached node payload records the
versions of the factors it multiplied by.  Refreshing ``U_n`` bumps version
``n``, which lazily invalidates every node whose free range *excludes* ``n``
— i.e. after an update only the root-to-leaf path of ``n`` stays fresh.
Nodes revalidate top-down on demand, so one HOOI sweep recomputes each
non-root node exactly once regardless of mode order.

Symbolic sources
----------------
The root holds the nonzeros either in the COO tensor's own order
(``source="coo"``) or sorted lexicographically, mode 0 slowest
(``source="csf"``, the order of a CSF tree with the identity mode order,
whose levels coincide with the tree's contiguous mode ranges).  Over the
sorted root every left-child edge inherits contiguous, already-sorted
segments from its parent's sort order, and the numeric edge updates run
gather-free over payload slices.  The served ``Y_(n)`` is identical either
way, which is what lets ``tensor_format="csf"`` compose with
``ttmc_strategy="dimtree"`` across all execution models.

Memory
------
Node payloads live in the engine's :class:`~repro.engine.workspace.WorkspacePool`
(one buffer per node, reused across iterations), trading
``Σ_nodes fibers × ∏ranks`` of resident memory for the recomputation the
per-mode strategy performs — the tradeoff ``HOOIOptions.ttmc_strategy``
selects.  Edge updates draw no scratch from the pool: their per-block
temporaries (gathered rows, at most sibling-width Kronecker rows) are
private, which keeps every range body lock-free.

Execution
---------
The tree is a work plan (:mod:`repro.engine.plans`): its keys are nodes, a
node's items are its fibers, and the range body refines a contiguous fiber
range of one edge — each child fiber aggregates a disjoint set of parent
fibers, so ranges write disjoint payload rows without locks.  The driver
keeps the version counters and decides which edges are stale; the engine's
dispatchers run the stale edges inline, on threads or on a process crew,
whose workers rebuild the tree over shared payloads (:meth:`pack` /
:meth:`attach`).
"""

from __future__ import annotations

from itertools import count as _instance_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kron import kron_dtype, kron_row_length
from repro.core.sparse_tensor import SparseTensor
from repro.core.subset_ttmc import (
    FiberGrouping,
    edge_update_groups,
    group_fibers,
    group_fibers_presorted,
    subset_widths,
)
from repro.core.symbolic import stable_radix_order
from repro.core.ttmc import zeroed_out
from repro.engine.plans import TTMcPlan
from repro.util.validation import check_axis

__all__ = ["DimTreeNode", "DimensionTree"]

_TREE_IDS = _instance_counter()


class DimTreeNode:
    """One node of the dimension tree: a contiguous free-mode range + cache."""

    __slots__ = (
        "node_id",
        "lo",
        "hi",
        "parent",
        "left",
        "right",
        "sibling_modes",
        "sibling_cols",
        "grouping",
        "index_cols",
        "multiplied_modes",
        "payload",
        "cache_dtype",
        "cache_ranks",
        "dep_versions",
    )

    def __init__(self, node_id: int, lo: int, hi: int, parent: Optional["DimTreeNode"]):
        self.node_id = node_id
        self.lo = lo
        self.hi = hi
        self.parent = parent
        self.left: Optional["DimTreeNode"] = None
        self.right: Optional["DimTreeNode"] = None
        self.sibling_modes: Tuple[int, ...] = ()
        self.sibling_cols: Tuple[int, ...] = ()
        self.grouping: Optional[FiberGrouping] = None
        self.index_cols: Optional[np.ndarray] = None
        self.multiplied_modes: Tuple[int, ...] = ()
        self.payload: Optional[np.ndarray] = None
        self.cache_dtype: Optional[np.dtype] = None
        self.cache_ranks: Optional[Tuple[int, ...]] = None
        self.dep_versions: Optional[Tuple[int, ...]] = None

    @property
    def modes(self) -> Tuple[int, ...]:
        """The node's free modes (its TTMc still has these modes unmultiplied)."""
        return tuple(range(self.lo, self.hi + 1))

    @property
    def is_leaf(self) -> bool:
        return self.lo == self.hi

    @property
    def num_fibers(self) -> int:
        return int(self.index_cols.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DimTreeNode(modes={self.modes}, fibers={self.num_fibers})"


class DimensionTree(TTMcPlan):
    """Symbolic dimension tree plus the per-factor-version payload cache.

    Built once per tensor (a lexsort per edge, the analogue of the per-mode
    symbolic step); :meth:`leaf_block` then serves any mode's ``Y_(n)`` rows,
    recomputing only the stale part of the root-to-leaf path, and
    :meth:`invalidate_factor` must be called whenever a factor matrix is
    replaced.  ``edge_updates`` counts numeric node recomputations — a steady
    HOOI sweep performs exactly ``len(nodes) - 1`` of them.

    ``source`` selects where the symbolic structure comes from:

    * ``"coo"`` (default) — the tree's root is the tensor's raw index matrix
      and every edge grouping is a :func:`group_fibers` lexsort.
    * ``"csf"`` — the root holds the nonzeros sorted lexicographically,
      mode 0 slowest (the leaf order of a CSF tree with the *identity* mode
      order, whose levels coincide with the tree's contiguous mode ranges),
      which makes every left-child grouping a prefix of a sorted parent: its
      segments are derived by the CSF change-flag walk
      (:func:`group_fibers_presorted`) with an identity permutation, and the
      numeric edge updates read the parent payload through contiguous slices
      instead of gathers.  Caching, invalidation and the served ``Y_(n)``
      are identical to the COO-sourced tree (fibers sort the same way —
      only the root row order and the grouping mechanics differ).

    Either way the sortedness of every non-root node's tuples (a
    :func:`group_fibers` postcondition) lets deeper left edges reuse the
    presorted walk too.  ``ranks`` sizes the shared segments, as for every
    plan (:class:`~repro.engine.plans.TTMcPlan`).
    """

    kind = "dimtree"

    #: Legal values of the ``source`` constructor argument.
    SOURCES = ("coo", "csf")

    def __init__(self, tensor: SparseTensor, *, source: str = "coo",
                 ranks=None) -> None:
        if tensor.order < 2:
            raise ValueError("a dimension tree requires a tensor of order >= 2")
        if source not in self.SOURCES:
            raise ValueError(
                f"unknown dimension-tree source {source!r}; expected one of "
                f"{self.SOURCES}"
            )
        super().__init__(tensor.shape, ranks)
        self.source = source
        root_cols, self._values = tensor.indices, tensor.values
        if source == "csf":
            # The CSF constructor's sort with the identity mode order.
            perm = stable_radix_order(
                [root_cols[:, m] for m in range(tensor.order)], tensor.shape
            )
            root_cols, self._values = root_cols[perm], self._values[perm]
        self._init_topology()
        self.root.index_cols = np.asarray(root_cols, dtype=np.int64)
        for node in self.nodes[1:]:
            parent = node.parent
            rel = [m - parent.lo for m in node.modes]
            # Children of any non-root node see sorted tuples (group_fibers
            # and the presorted walk both emit ascending order); only a COO
            # root's raw index matrix is unsorted.
            parent_sorted = parent is not self.root or source == "csf"
            if parent_sorted and node.lo == parent.lo:
                # Left child of a lex-sorted parent: its grouping columns are
                # a prefix of the sort key, so the groups are already
                # contiguous and ordered — the CSF change-flag walk replaces
                # the lexsort (and marks the grouping contiguous, unlocking
                # the sliced edge-update fast path).
                node.grouping = group_fibers_presorted(parent.index_cols[:, rel])
            else:
                node.grouping = group_fibers(parent.index_cols[:, rel])
            node.index_cols = node.grouping.indices

    @classmethod
    def build(cls, tensor, ranks, options, threads=1):
        source = "csf" if (options.tensor_format or "coo") == "csf" else "coo"
        return cls(tensor, source=source, ranks=ranks)

    @property
    def dtype(self) -> np.dtype:
        return self._values.dtype

    # ------------------------------------------------------------------ #
    # Construction (symbolic)
    # ------------------------------------------------------------------ #
    def _init_topology(self) -> None:
        """The node hierarchy and cache state (groupings come separately)."""
        self._token = f"dimtree{next(_TREE_IDS)}"
        self._versions = [0] * self.order
        self.edge_updates = 0
        # Packed trees keep their payloads in shared segments for good.
        self._shared = False
        self.nodes: List[DimTreeNode] = []
        self.leaves: List[Optional[DimTreeNode]] = [None] * self.order
        self.root = self._build(0, self.order - 1, None)

    def _build(self, lo: int, hi: int, parent: Optional[DimTreeNode]) -> DimTreeNode:
        node = DimTreeNode(len(self.nodes), lo, hi, parent)
        self.nodes.append(node)
        if parent is not None:
            node.sibling_modes = tuple(
                m for m in parent.modes if not lo <= m <= hi
            )
            node.sibling_cols = tuple(m - parent.lo for m in node.sibling_modes)
        node.multiplied_modes = tuple(
            m for m in range(self.order) if not lo <= m <= hi
        )
        if lo == hi:
            self.leaves[lo] = node
        else:
            mid = (lo + hi) // 2
            node.left = self._build(lo, mid, node)
            node.right = self._build(mid + 1, hi, node)
        return node

    def path(self, mode: int) -> List[DimTreeNode]:
        """Root-to-leaf node path for ``mode``."""
        mode = check_axis(mode, self.order)
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            node = node.left if mode <= node.left.hi else node.right
            path.append(node)
        return path

    # ------------------------------------------------------------------ #
    # Cache state
    # ------------------------------------------------------------------ #
    def invalidate_factor(self, mode: int) -> None:
        """Mark factor ``mode`` as replaced.

        Lazily invalidates every cached node whose chain multiplied by the
        old ``U_mode`` — everything *off* the root-to-leaf path of ``mode``.
        """
        mode = check_axis(mode, self.order)
        self._versions[mode] += 1

    factor_updated = invalidate_factor

    def node_is_fresh(self, node: DimTreeNode) -> bool:
        """Whether the node's cached payload reflects the current factors."""
        if node.payload is None:
            return False
        if node is self.root:
            return True
        return all(
            node.dep_versions[i] == self._versions[m]
            for i, m in enumerate(node.multiplied_modes)
        )

    def fresh_nodes(self) -> List[DimTreeNode]:
        """All nodes whose cache is valid under the current factor versions."""
        return [node for node in self.nodes if self.node_is_fresh(node)]

    # ------------------------------------------------------------------ #
    # The plan: keys are nodes, items are a node's fibers
    # ------------------------------------------------------------------ #
    def rows(self, mode: int) -> np.ndarray:
        return self.leaves[mode].index_cols[:, 0]

    def items(self, node_id: int) -> int:
        return self.nodes[node_id].num_fibers

    def body(self, node_id: int, start: int, stop: int, workspace=None) -> None:
        """Refine fibers ``[start, stop)`` of one edge into the node payload.

        Allocates its block temporaries privately; ``workspace`` is unused.
        """
        node = self.nodes[node_id]
        parent = node.parent
        ranks = [None if f is None else f.shape[1] for f in self.factors]
        lo_width, hi_width = subset_widths(ranks, parent.lo, parent.hi)
        edge_update_groups(
            node.grouping,
            start,
            stop,
            parent.payload,
            parent.index_cols,
            node.sibling_cols,
            [
                np.asarray(self.factors[m], dtype=node.payload.dtype)
                for m in node.sibling_modes
            ],
            lo_width,
            hi_width,
            node.payload[start:stop],
        )

    def ttmc(self, mode: int, run, workspace=None) -> np.ndarray:
        return self.leaf_block(mode, self.factors, workspace=workspace, run=run)

    # ------------------------------------------------------------------ #
    # Numeric evaluation
    # ------------------------------------------------------------------ #
    def leaf_matricized(
        self,
        mode: int,
        factors: Sequence[Optional[np.ndarray]],
        *,
        dtype=None,
        out: Optional[np.ndarray] = None,
        workspace=None,
    ) -> np.ndarray:
        """The full ``Y_(mode)`` (see :meth:`leaf_block`), as ``ttmc_matricized``.

        Same shape, column order, dtype promotion and ``out`` contract.
        """
        block = self.leaf_block(mode, factors, dtype=dtype, workspace=workspace)
        out = zeroed_out(out, (self.shape[mode], block.shape[1]), block.dtype)
        out[self.rows(mode)] = block
        return out

    def leaf_block(
        self,
        mode: int,
        factors: Sequence[Optional[np.ndarray]],
        *,
        dtype=None,
        workspace=None,
        run=None,
    ) -> np.ndarray:
        """The leaf payload: ``Y_(mode)``'s :meth:`rows`, refreshing stale nodes.

        ``factors[mode]`` is never multiplied and may be ``None``.
        ``workspace`` supplies the node payload buffers (edges draw no
        scratch from it); ``run(node_id)`` refines a stale node over all its
        fibers (a dispatcher's range runner — inline by default).
        """
        mode = check_axis(mode, self.order)
        if len(factors) != self.order:
            raise ValueError(
                f"expected {self.order} factors, got {len(factors)}"
            )
        if dtype is None:
            dtype = kron_dtype(
                self._values, *[f for f in factors if f is not None]
            )
        dtype = np.dtype(dtype)
        ranks: List[Optional[int]] = []
        for t, factor in enumerate(factors):
            if factor is None:
                ranks.append(None)
                continue
            factor = np.asarray(factor)
            if factor.ndim != 2 or factor.shape[0] != self.shape[t]:
                raise ValueError(
                    f"factor for mode {t} must be 2-D with {self.shape[t]} rows"
                )
            ranks.append(int(factor.shape[1]))
        self.factors = list(factors)
        if run is None:
            def run(node_id: int) -> None:
                self.body(node_id, 0, self.items(node_id))

        path = self.path(mode)
        for node in path:
            self._ensure_fresh(node, ranks, dtype, workspace, run)
        return path[-1].payload

    def _ensure_fresh(self, node: DimTreeNode, ranks, dtype, workspace, run) -> None:
        if node is self.root:
            if node.payload is None or node.cache_dtype != dtype:
                node.payload = np.asarray(
                    self._values, dtype=dtype
                ).reshape(-1, 1)
                node.cache_dtype = dtype
            return
        sig = tuple(ranks[m] for m in node.multiplied_modes)
        if (
            node.cache_dtype == dtype
            and node.cache_ranks == sig
            and self.node_is_fresh(node)
        ):
            return

        lo_width, hi_width = subset_widths(ranks, node.parent.lo, node.parent.hi)
        shape = (
            node.num_fibers,
            lo_width * hi_width
            * kron_row_length([ranks[m] for m in node.sibling_modes]),
        )
        if self._shared:
            if node.payload.shape != shape or node.payload.dtype != dtype:
                raise ValueError(
                    f"node {node.node_id} needs a {shape}/{dtype} payload but "
                    f"its shared segment is {node.payload.shape}/"
                    f"{node.payload.dtype}: a packed tree has fixed ranks"
                )
        elif workspace is not None:
            node.payload = workspace.take(
                shape, dtype, tag=f"{self._token}-node{node.node_id}"
            )
        else:
            node.payload = np.empty(shape, dtype=dtype)
        run(node.node_id)
        node.cache_dtype = dtype
        node.cache_ranks = sig
        node.dep_versions = tuple(
            self._versions[m] for m in node.multiplied_modes
        )
        self.edge_updates += 1

    # ------------------------------------------------------------------ #
    # Shared-arena layout
    # ------------------------------------------------------------------ #
    def pack(self, arena) -> dict:
        """Groupings and every node payload go into shared segments.

        The root's index matrix and values are the *tree's* (a CSF-sourced
        tree's groupings reference the lexicographically sorted row order),
        and contiguous groupings carry their flag so workers take the sliced
        edge-update path too; a leaf's payload is its mode's ``out{n}``.
        The driver's nodes then hold the shared payloads, so the block it
        serves is what the workers wrote.
        """
        meta = super().pack(arena)
        dtype = self.dtype
        ranks = self.ranks
        arena.put("indices", np.ascontiguousarray(self.root.index_cols))
        self.root.payload = arena.put(
            f"payload{self.root.node_id}", self._values.reshape(-1, 1)
        )
        self.root.cache_dtype = dtype
        for node in self.nodes[1:]:
            lo_width, hi_width = subset_widths(ranks, node.parent.lo, node.parent.hi)
            width = lo_width * hi_width * kron_row_length(
                [ranks[m] for m in node.sibling_modes]
            )
            arena.put(f"grp-idx{node.node_id}", node.grouping.indices)
            arena.put(f"grp-perm{node.node_id}", node.grouping.perm)
            arena.put(f"grp-segptr{node.node_id}", node.grouping.segptr)
            node.payload = self.outs[node.lo] if node.is_leaf else arena.zeros(
                f"payload{node.node_id}", (node.num_fibers, width), dtype
            )
        self._shared = True
        contiguous = [
            bool(node.grouping.contiguous) for node in self.nodes[1:]
        ]
        return dict(meta, contiguous=contiguous)

    @classmethod
    def attach(cls, view, meta: dict) -> "DimensionTree":
        tree = cls.__new__(cls)
        TTMcPlan.__init__(tree, meta["shape"], meta["ranks"])
        tree._init_topology()
        tree._shared = True
        tree.root.index_cols = view["indices"]
        tree.root.payload = view[f"payload{tree.root.node_id}"]
        tree._values = tree.root.payload[:, 0]
        for node, contiguous in zip(tree.nodes[1:], meta["contiguous"]):
            nid = node.node_id
            node.grouping = FiberGrouping(
                indices=view[f"grp-idx{nid}"],
                perm=view[f"grp-perm{nid}"],
                segptr=view[f"grp-segptr{nid}"],
                contiguous=contiguous,
            )
            node.index_cols = node.grouping.indices
            node.payload = view[f"out{node.lo}" if node.is_leaf else f"payload{nid}"]
        return tree._attach_buffers(view)
