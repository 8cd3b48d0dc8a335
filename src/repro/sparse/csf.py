"""Compressed Sparse Fiber (CSF) storage for N-mode sparse tensors.

The COO layout every kernel in :mod:`repro.core` consumes stores one full
index tuple per nonzero, so a TTMc walks ``nnz × order`` indices and re-sorts
(or replays a precomputed sort of) the nonzeros on every call.  Real tensors
are *fibered*: many nonzeros share index prefixes (all ratings of one user,
all bookmarks of one day).  The CSF format — introduced by Smith & Karypis
for SPLATT — stores each shared prefix exactly once as a tree:

* level ``ℓ`` of the tree corresponds to mode ``mode_order[ℓ]``;
* ``fids[ℓ]`` holds the mode index of every node (fiber) at that level;
* ``fptr[ℓ]`` is a CSR-style pointer array: node ``p`` at level ``ℓ`` owns
  the contiguous child range ``fids[ℓ+1][fptr[ℓ][p]:fptr[ℓ][p+1]]``;
* the last level's nodes are the nonzeros themselves, with ``values``
  aligned to them in lexicographic order.

Two structural wins follow.  Memory: a mode index shared by ``k`` nonzeros is
stored once instead of ``k`` times (``memory_bytes`` quantifies it against
:meth:`repro.core.sparse_tensor.SparseTensor.memory_bytes`).  Compute: a TTMc
becomes a depth-first sweep over contiguous fiber segments — factor rows of
the upper levels are gathered once per *fiber* instead of once per *nonzero*,
and partial products are merged with segment reductions over the fiber
extents (:mod:`repro.sparse.csf_ttmc`).

The mode ordering is configurable.  The default heuristic is
*shortest-mode-first* (:func:`default_mode_order`): small modes at the top
maximize prefix sharing near the root, which is where a merged fiber saves
the widest partial products.  :func:`rooted_mode_order` pins one mode at the
root, and a tree serves the TTMc of that mode only: its output rows are the
root fibers, with no scatter conflicts.  :class:`CSFTensorSet` holds the one
rooted tree per mode that the engine, the distributed ranks and the process
crew run on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import stable_radix_order
from repro.util.validation import check_axis

__all__ = [
    "CSFTensor",
    "CSFTensorSet",
    "csf_levels_from_sorted",
    "default_mode_order",
    "rooted_mode_order",
    "memory_report",
]

#: On-disk manifest filenames of the memory-mapped layouts.
_CSF_MANIFEST = "csf-manifest.json"
_SET_MANIFEST = "csf-set-manifest.json"


def csf_levels_from_sorted(
    sorted_indices: np.ndarray, mode_order: Sequence[int]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Build the ``fids``/``fptr`` level arrays of a lexsorted index block.

    ``sorted_indices`` must already be sorted lexicographically by
    ``mode_order`` (primary key first); the constructor sorts and calls
    this.
    """
    mode_order = tuple(int(m) for m in mode_order)
    order = len(mode_order)
    nnz = int(sorted_indices.shape[0])
    if nnz == 0:
        return (
            [np.empty(0, dtype=np.int64) for _ in range(order)],
            [np.zeros(1, dtype=np.int64) for _ in range(order - 1)],
        )

    # A node starts at nonzero position t iff the index prefix up to its
    # level changes there; the change flags accumulate (a level-ℓ break
    # is also a break at every deeper level), so one boolean array
    # OR-folded level by level yields every level's fiber starts.
    change = np.zeros(nnz, dtype=bool)
    change[0] = True
    starts: List[np.ndarray] = []
    for level in range(order - 1):
        column = sorted_indices[:, mode_order[level]]
        change[1:] |= column[1:] != column[:-1]
        starts.append(np.flatnonzero(change).astype(np.int64))

    fids = [
        sorted_indices[starts[level], mode_order[level]]
        for level in range(order - 1)
    ]
    fids.append(np.ascontiguousarray(sorted_indices[:, mode_order[-1]]))
    starts.append(np.arange(nnz, dtype=np.int64))  # leaves = nonzeros

    # fptr[ℓ][p] = position of the first level-(ℓ+1) node inside fiber p.
    # Every level-ℓ start is also a level-(ℓ+1) start, so the pointer is
    # one vectorized searchsorted per level.
    fptr = []
    for level in range(order - 1):
        bounds = np.concatenate([starts[level], [nnz]])
        fptr.append(
            np.searchsorted(starts[level + 1], bounds).astype(np.int64)
        )
    return fids, fptr


def default_mode_order(shape: Sequence[int]) -> Tuple[int, ...]:
    """Shortest-mode-first ordering (ties broken by mode index).

    Placing the smallest modes at the top of the tree concentrates prefix
    sharing where fibers are widest: with few distinct root indices, each
    root fiber merges many nonzeros, and the expensive upper-level partial
    products are computed once per merged fiber.
    """
    return tuple(sorted(range(len(shape)), key=lambda m: (int(shape[m]), m)))


def rooted_mode_order(shape: Sequence[int], root_mode: int) -> Tuple[int, ...]:
    """Mode ordering with ``root_mode`` first and the rest shortest-first.

    A tree rooted at mode ``n`` serves the mode-``n`` TTMc with its output
    rows exactly the (sorted, unique) root fibers — no two subtrees write
    the same row, which is what makes the root-slab thread decomposition
    lock-free.
    """
    root_mode = check_axis(root_mode, len(shape))
    rest = [m for m in default_mode_order(shape) if m != root_mode]
    return (root_mode,) + tuple(rest)


class CSFTensor:
    """A sparse tensor compressed as a fiber tree.

    Parameters
    ----------
    tensor:
        The COO :class:`~repro.core.sparse_tensor.SparseTensor` to compress.
        Duplicate coordinates are preserved (two identical tuples become two
        sibling leaves); deduplicate first if that is not intended.
    mode_order:
        Tree level ``ℓ`` stores mode ``mode_order[ℓ]``.  Defaults to
        :func:`default_mode_order` (shortest-mode-first).

    Attributes
    ----------
    fids:
        ``order`` arrays; ``fids[ℓ][p]`` is the mode-``mode_order[ℓ]`` index
        of node ``p`` at level ``ℓ``.  ``fids[order - 1]`` has one entry per
        nonzero; ``fids[0]`` is sorted and duplicate-free.
    fptr:
        ``order - 1`` pointer arrays; node ``p`` at level ``ℓ`` owns children
        ``fptr[ℓ][p]:fptr[ℓ][p + 1]`` at level ``ℓ + 1``.
    values:
        Nonzero values aligned with ``fids[order - 1]`` (lexicographic order
        of the permuted index tuples).
    """

    __slots__ = (
        "shape",
        "mode_order",
        "fids",
        "fptr",
        "values",
        "_token",
    )

    def __init__(
        self,
        tensor: SparseTensor,
        *,
        mode_order: Optional[Sequence[int]] = None,
    ) -> None:
        if mode_order is None:
            mode_order = default_mode_order(tensor.shape)
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(tensor.order)):
            raise ValueError(
                f"mode_order must be a permutation of 0..{tensor.order - 1}, "
                f"got {mode_order}"
            )
        self.shape: Tuple[int, ...] = tensor.shape
        self.mode_order = mode_order
        # Workspace-pool tag prefix.  Deliberately *not* unique per instance:
        # the kernels fully overwrite every tagged buffer before reading it,
        # so trees with the same mode order can share scratch — which is what
        # lets a shared WorkspacePool stay at zero steady-state allocations
        # across engine runs (each run rebuilds its CSFTensorSet).
        self._token = "csf-" + ".".join(str(m) for m in mode_order)

        order = tensor.order
        nnz = tensor.nnz
        if nnz == 0:
            self.fids = [np.empty(0, dtype=np.int64) for _ in range(order)]
            self.fptr = [np.zeros(1, dtype=np.int64) for _ in range(order - 1)]
            self.values = tensor.values.copy()
            return

        # Lexicographic sort by (mode_order[0], mode_order[1], ...).
        perm = stable_radix_order(
            [tensor.indices[:, m] for m in mode_order],
            [tensor.shape[m] for m in mode_order],
        )
        sorted_indices = tensor.indices[perm]
        self.values = tensor.values[perm]
        self.fids, self.fptr = csf_levels_from_sorted(sorted_indices, mode_order)

    @classmethod
    def from_arrays(
        cls,
        shape: Sequence[int],
        mode_order: Sequence[int],
        fids: Sequence[np.ndarray],
        fptr: Sequence[np.ndarray],
        values: np.ndarray,
    ) -> "CSFTensor":
        """Reassemble a tree from its level arrays — no sort, no copies.

        The worker side of the shared-memory process pool: the driver
        serializes a built tree's ``fids``/``fptr``/``values`` into arena
        segments, and each worker reconstructs the identical tree over its
        zero-copy views once per attach.  The arrays are trusted to be a
        consistent CSF (they came out of the constructor on the driver
        side); only the level-array counts are checked.
        """
        shape = tuple(int(s) for s in shape)
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(len(shape))):
            raise ValueError(
                f"mode_order must be a permutation of 0..{len(shape) - 1}, "
                f"got {mode_order}"
            )
        if len(fids) != len(shape) or len(fptr) != len(shape) - 1:
            raise ValueError(
                f"expected {len(shape)} fids arrays and {len(shape) - 1} fptr "
                f"arrays, got {len(fids)} / {len(fptr)}"
            )
        obj = cls.__new__(cls)
        obj.shape = shape
        obj.mode_order = mode_order
        obj._token = "csf-" + ".".join(str(m) for m in mode_order)
        obj.fids = list(fids)
        obj.fptr = list(fptr)
        obj.values = values
        return obj

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def num_fibers(self, level: int) -> int:
        """Number of nodes (fibers) at the given tree level."""
        return int(self.fids[check_axis(level, self.order)].shape[0])

    def level_of(self, mode: int) -> int:
        """Tree level storing the given tensor mode."""
        return self.mode_order.index(check_axis(mode, self.order))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fibers = "/".join(str(self.num_fibers(level)) for level in range(self.order))
        return (
            f"CSFTensor(shape={self.shape}, mode_order={self.mode_order}, "
            f"fibers={fibers})"
        )

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Bytes held by the level arrays and values.

        The COO counterpart is
        :meth:`repro.core.sparse_tensor.SparseTensor.memory_bytes`; the ratio
        of the two is the structural compression the fiber tree achieves
        (every shared prefix stored once, at the cost of the ``fptr``
        pointers).
        """
        total = self.values.nbytes
        total += sum(int(a.nbytes) for a in self.fids)
        total += sum(int(a.nbytes) for a in self.fptr)
        return int(total)

    def resident_bytes(self) -> int:
        """Bytes of the level arrays actually resident in process memory.

        Same measure as :meth:`memory_bytes` but excluding memory-mapped
        arrays (a :meth:`from_mmap` tree's levels are pager-backed views of
        the on-disk ``.npy`` files, not heap allocations) — the accounting
        the out-of-core acceptance gate asserts against its RSS cap.
        """
        total = 0
        for array in [self.values, *self.fids, *self.fptr]:
            if not isinstance(array, np.memmap):
                total += int(array.nbytes)
        return total

    # ------------------------------------------------------------------ #
    # Memory-mapped persistence (the out-of-core storage seam)
    # ------------------------------------------------------------------ #
    def to_mmap(self, directory: Union[str, Path]) -> Path:
        """Write the level arrays as ``.npy`` files plus a manifest.

        The inverse, :meth:`from_mmap`, reassembles the identical tree over
        ``np.load(..., mmap_mode=...)`` views, so a TTMc sweep streams the
        level arrays through the page cache instead of holding them on the
        heap — tensors whose trees exceed RAM still decompose
        (:mod:`repro.streaming.out_of_core`).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / "values.npy", self.values)
        for level, array in enumerate(self.fids):
            np.save(directory / f"fids{level}.npy", array)
        for level, array in enumerate(self.fptr):
            np.save(directory / f"fptr{level}.npy", array)
        manifest = {
            "schema": "repro-csf-mmap/1",
            "shape": [int(s) for s in self.shape],
            "mode_order": [int(m) for m in self.mode_order],
            "nnz": self.nnz,
            "dtype": self.values.dtype.str,
        }
        (directory / _CSF_MANIFEST).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        return directory

    @classmethod
    def from_mmap(
        cls, directory: Union[str, Path], *, mmap_mode: str = "r"
    ) -> "CSFTensor":
        """Reassemble a :meth:`to_mmap` tree over memory-mapped level arrays."""
        directory = Path(directory)
        manifest_path = directory / _CSF_MANIFEST
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"{directory} holds no memory-mapped CSF tree (missing "
                f"{_CSF_MANIFEST}) — write one with CSFTensor.to_mmap first"
            )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("schema") != "repro-csf-mmap/1":
            raise ValueError(
                f"unsupported CSF mmap schema {manifest.get('schema')!r} "
                f"in {manifest_path}"
            )
        order = len(manifest["shape"])
        load = lambda name: np.load(directory / name, mmap_mode=mmap_mode)  # noqa: E731
        return cls.from_arrays(
            manifest["shape"],
            manifest["mode_order"],
            [load(f"fids{level}.npy") for level in range(order)],
            [load(f"fptr{level}.npy") for level in range(order - 1)],
            load("values.npy"),
        )

    def target_rows(self, mode: int) -> np.ndarray:
        """Sorted mode indices owning at least one nonzero (``J_n``).

        Those are the root fibers of a tree rooted at ``mode``.  A tree
        serves only its root mode, so any other mode raises
        :class:`ValueError` (as its TTMc does).
        """
        level = self.level_of(mode)
        if level != 0:
            raise ValueError(
                f"a CSF tree serves only the mode at its root, but mode {mode} "
                f"sits at level {level} of mode order {self.mode_order}: build "
                f"the tree with mode_order=rooted_mode_order(shape, {mode}), "
                f"or take CSFTensorSet.per_mode(tensor).tree_for({mode})"
            )
        return self.fids[0]

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_coo(self) -> SparseTensor:
        """Expand the tree back to COO (exact round-trip, duplicates kept)."""
        nnz = self.nnz
        indices = np.empty((nnz, self.order), dtype=np.int64)
        if nnz:
            # Nonzero start of every node, composed bottom-up through fptr.
            starts = np.arange(nnz, dtype=np.int64)
            level_starts: List[np.ndarray] = [None] * self.order
            level_starts[self.order - 1] = starts
            for level in range(self.order - 2, -1, -1):
                level_starts[level] = level_starts[level + 1][self.fptr[level][:-1]]
            for level in range(self.order):
                spans = np.diff(
                    np.concatenate([level_starts[level], [nnz]])
                )
                indices[:, self.mode_order[level]] = np.repeat(
                    self.fids[level], spans
                )
        return SparseTensor(
            indices, self.values, self.shape, copy=False
        )


class CSFTensorSet:
    """One tree per mode, each rooted at its mode.

    :meth:`per_mode` builds, for every mode ``n``, a tree rooted at ``n``
    (:func:`rooted_mode_order`): each TTMc is then a pure pullup whose
    output rows are the unique root fibers, at ``order``× the index memory
    of one tree.  A memory-bound run keeps the trees on disk instead:
    :func:`repro.streaming.build_out_of_core` writes them one at a time and
    :meth:`from_mmap` loads them.
    """

    def __init__(self, trees: Dict[int, CSFTensor]) -> None:
        self._trees = trees

    @classmethod
    def per_mode(
        cls,
        tensor: SparseTensor,
        *,
        num_threads: int = 1,
        subsets: Optional[Dict[int, np.ndarray]] = None,
    ) -> "CSFTensorSet":
        """One rooted tree per mode, built with up to one task per mode.

        The builds are independent full sorts of the nonzeros, so the
        threaded backend overlaps them exactly like the per-mode symbolic
        step (``parallel_symbolic``).  With ``subsets``, tree ``n`` holds
        only the nonzeros at positions ``subsets[n]`` (a distributed rank's
        update lists of the mode-``n`` rows it computes).
        """

        def build(mode: int) -> CSFTensor:
            source = (
                tensor if subsets is None else tensor.select_nonzeros(subsets[mode])
            )
            return CSFTensor(
                source, mode_order=rooted_mode_order(tensor.shape, mode)
            )

        modes = range(tensor.order)
        if num_threads <= 1 or tensor.order == 1:
            trees = {mode: build(mode) for mode in modes}
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                max_workers=min(num_threads, tensor.order)
            ) as pool:
                futures = {mode: pool.submit(build, mode) for mode in modes}
                trees = {mode: fut.result() for mode, fut in futures.items()}
        return cls(trees)

    def tree_for(self, mode: int) -> CSFTensor:
        return self._trees[mode]

    def memory_bytes(self) -> int:
        return sum(tree.memory_bytes() for tree in self._trees.values())

    def resident_bytes(self) -> int:
        """Heap-resident bytes of the set (memmap-backed levels excluded)."""
        return sum(tree.resident_bytes() for tree in self._trees.values())

    # ------------------------------------------------------------------ #
    # Memory-mapped persistence
    # ------------------------------------------------------------------ #
    @staticmethod
    def write_mmap_manifest(
        directory: Union[str, Path], *, modes: Sequence[int]
    ) -> Path:
        """Write the set-level manifest binding per-tree directories.

        The out-of-core builder writes each tree with
        :meth:`CSFTensor.to_mmap` under :meth:`tree_directory` (holding a
        single tree in RAM), then this manifest, which :meth:`from_mmap`
        reads.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": "repro-csf-set-mmap/1",
            "modes": [int(m) for m in modes],
        }
        path = directory / _SET_MANIFEST
        path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return path

    @staticmethod
    def tree_directory(directory: Union[str, Path], mode: int) -> Path:
        """Subdirectory of mode ``mode``'s tree in a mmap set layout."""
        return Path(directory) / f"mode-{int(mode)}"

    @classmethod
    def from_mmap(
        cls, directory: Union[str, Path], *, mmap_mode: str = "r"
    ) -> "CSFTensorSet":
        """Load a :meth:`write_mmap_manifest` layout as memmap-backed trees."""
        directory = Path(directory)
        manifest_path = directory / _SET_MANIFEST
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"{directory} holds no memory-mapped CSF set (missing "
                f"{_SET_MANIFEST}) — write one with "
                "repro.streaming.build_out_of_core"
            )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("schema") != "repro-csf-set-mmap/1":
            raise ValueError(
                f"unsupported CSF set mmap schema {manifest.get('schema')!r} "
                f"in {manifest_path}"
            )
        if manifest.get("shared"):
            raise ValueError(
                f"{manifest_path} describes one tree shared by every mode, but "
                "a CSF tree serves only the mode at its root: rebuild the "
                "directory with repro.streaming.build_out_of_core, which "
                "writes one rooted tree per mode"
            )
        return cls(
            {
                int(mode): CSFTensor.from_mmap(
                    cls.tree_directory(directory, mode), mmap_mode=mmap_mode
                )
                for mode in manifest["modes"]
            }
        )


def memory_report(tensor: SparseTensor, csf) -> Dict[str, float]:
    """COO-vs-CSF footprint summary for benchmark output.

    ``csf`` is a :class:`CSFTensor` or :class:`CSFTensorSet`.  Returns the
    byte counts plus ``ratio`` (CSF bytes / COO bytes — below 1 means the
    fiber tree is smaller).
    """
    coo_bytes = tensor.memory_bytes()
    csf_bytes = int(csf.memory_bytes())
    return {
        "coo_bytes": int(coo_bytes),
        "csf_bytes": csf_bytes,
        "ratio": csf_bytes / coo_bytes if coo_bytes else float("nan"),
        "nnz": tensor.nnz,
    }
