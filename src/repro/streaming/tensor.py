"""Append-only COO tensor merged in the one-shot constructor's order.

:class:`StreamingTensor` holds the merged nonzeros once, in the order
``SparseTensor(..., sum_duplicates=True)`` stores them: column-major, the
first mode varying fastest.  Each :class:`~repro.streaming.delta.DeltaBatch`
folds in with a sorted merge: one ``searchsorted`` against the cached
column-major linear keys classifies every batch entry as an update of an
existing coordinate or a brand-new one, a vectorized splice opens gaps for
the new coordinates, and a single ``np.add.at`` folds the batch values in
their original order.  Because ``np.add.at`` applies its updates
sequentially in index-array order, the fold each merged coordinate sees is
*exactly* the left-fold the one-shot constructor performs on the
concatenated entries — appending any split of the same entries, in any
batch sizes, yields bit-identical arrays (the hypothesis property pinning
this subsystem).

Column-major order does not depend on the shape, so growth never re-sorts:
it only invalidates the keys, whose strides change.  When ``∏ shape``
reaches 2^63 the keys would wrap, and the merge re-sorts the concatenation
with the constructor's comparator instead.  An append replaces the stored
arrays rather than writing into them, so a :attr:`StreamingTensor.tensor`
snapshot never changes afterwards.  A caller who wants a fiber tree builds
one from the snapshot: ``CSFTensor(stream.tensor)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.sparse_tensor import (
    SparseTensor,
    colmajor_groups,
    colmajor_keys,
    resolve_dtype,
)
from repro.streaming.delta import DeltaBatch

__all__ = ["AppendStats", "StreamingTensor"]


@dataclass(frozen=True)
class AppendStats:
    """What one :meth:`StreamingTensor.append` did.

    ``batch_nnz`` entries arrived; ``new_coords`` coordinates were added and
    ``updated_coords`` existing ones received values.
    """

    batch_nnz: int
    new_coords: int
    updated_coords: int


class StreamingTensor:
    """An append-only sparse tensor, stored in column-major order.

    Parameters
    ----------
    initial:
        Optional :class:`SparseTensor` seeding the stream (applied as a
        first batch, raw entries in storage order).
    shape:
        Optional starting shape; appends grow it to cover their extents
        (explicitly via :meth:`grow_to` as well).
    dtype:
        Storage dtype; defaults to the first entries' supported float dtype.
    """

    def __init__(
        self,
        initial: Optional[SparseTensor] = None,
        *,
        shape: Optional[Sequence[int]] = None,
        dtype=None,
    ) -> None:
        self._dtype = resolve_dtype(dtype) if dtype is not None else None
        self._shape: Optional[Tuple[int, ...]] = (
            tuple(int(s) for s in shape) if shape is not None else None
        )
        self._indices: Optional[np.ndarray] = None  # column-major order
        self._values: Optional[np.ndarray] = None
        # Column-major linear keys of ``_indices``; ``None`` past int64.
        self._keys: Optional[np.ndarray] = None
        self._keys_valid = False

        self.batches_applied = 0

        if self._shape is not None:
            self._establish(len(self._shape))
        if initial is not None:
            self.append(DeltaBatch.from_tensor(initial))
            if self._shape is not None and len(self._shape) == initial.order:
                self.grow_to(
                    tuple(
                        max(int(a), int(b))
                        for a, b in zip(self._shape, initial.shape)
                    )
                )

    # ------------------------------------------------------------------ #
    # Establishment and shape growth
    # ------------------------------------------------------------------ #
    def _establish(self, order: int) -> None:
        if self._shape is None:
            self._shape = (1,) * order
        if len(self._shape) != order:
            raise ValueError(
                f"batch has {order} modes but the stream has "
                f"{len(self._shape)}"
            )
        if self._indices is None:
            dtype = self._dtype if self._dtype is not None else np.float64
            self._indices = np.empty((0, order), dtype=np.int64)
            self._values = np.empty(0, dtype=dtype)
            self._keys_valid = False

    def grow_to(self, shape: Sequence[int]) -> None:
        """Grow the logical shape (never shrinks).

        Growth never moves the stored entries — column-major order is
        shape-independent — but it invalidates the linear keys (the strides
        change).
        """
        if self._shape is None:
            self._shape = tuple(int(s) for s in shape)
            return
        shape = tuple(int(s) for s in shape)
        if len(shape) != len(self._shape):
            raise ValueError(
                f"shape has {len(shape)} modes but the stream has "
                f"{len(self._shape)}"
            )
        if any(n < o for n, o in zip(shape, self._shape)):
            raise ValueError(
                f"cannot shrink shape {self._shape} to {shape}"
            )
        if shape == self._shape:
            return
        self._shape = shape
        self._keys_valid = False

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        if self._shape is None:
            raise ValueError("empty streaming tensor with no shape information")
        return self._shape

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return 0 if self._values is None else int(self._values.shape[0])

    @property
    def dtype(self) -> np.dtype:
        if self._values is not None:
            return self._values.dtype
        return self._dtype if self._dtype is not None else np.dtype(np.float64)

    def norm(self) -> float:
        return 0.0 if self._values is None else float(np.linalg.norm(self._values))

    # ------------------------------------------------------------------ #
    # Append
    # ------------------------------------------------------------------ #
    def append(self, batch) -> AppendStats:
        """Fold a batch in; returns what happened (see :class:`AppendStats`)."""
        batch = DeltaBatch.coerce(batch)
        if self._indices is None:
            if self._dtype is None:
                self._dtype = resolve_dtype(batch.dtype)
            self._establish(batch.order)
        if batch.order != self.order:
            raise ValueError(
                f"batch has {batch.order} modes but the stream has {self.order}"
            )
        self.batches_applied += 1
        bidx = batch.indices
        bvals = batch.values.astype(self._values.dtype, copy=False)
        if batch.nnz == 0:
            return AppendStats(0, 0, 0)

        new_shape = tuple(
            max(int(s), int(e)) for s, e in zip(self._shape, batch.extents())
        )
        if new_shape != self._shape:
            self.grow_to(new_shape)
        if not self._keys_valid:
            self._keys = colmajor_keys(self._indices, self._shape)
            self._keys_valid = True
        if self._keys is None:
            return self._append_fallback(bidx, bvals)
        return self._append_sorted_merge(bidx, bvals)

    def _append_sorted_merge(
        self, bidx: np.ndarray, bvals: np.ndarray
    ) -> AppendStats:
        bkeys = colmajor_keys(bidx, self._shape)
        n_old = self.nnz
        pos = np.searchsorted(self._keys, bkeys)
        if n_old:
            exists = (pos < n_old) & (
                self._keys[np.minimum(pos, n_old - 1)] == bkeys
            )
        else:
            exists = np.zeros(bkeys.shape, dtype=bool)
        updated = int(np.unique(bkeys[exists]).shape[0])

        if exists.all():
            # Value-only batch: fold into a copy, so that no snapshot
            # handed out by ``tensor`` changes.
            values = self._values.copy()
            np.add.at(values, pos, bvals)
            self._values = values
            return AppendStats(int(bvals.shape[0]), 0, updated)

        new_mask = ~exists
        filtered = np.flatnonzero(new_mask)
        ukeys_new, first = np.unique(bkeys[filtered], return_index=True)
        rep = filtered[first]  # first occurrence, in batch order
        n_new = int(ukeys_new.shape[0])
        n_merged = n_old + n_new

        ins = np.searchsorted(self._keys, ukeys_new)
        shift = np.cumsum(np.bincount(ins, minlength=n_old + 1))
        pos_old = np.arange(n_old, dtype=np.int64) + shift[:n_old]
        pos_new = ins + np.arange(n_new, dtype=np.int64)

        merged_keys = np.empty(n_merged, dtype=np.int64)
        merged_keys[pos_old] = self._keys
        merged_keys[pos_new] = ukeys_new
        merged_idx = np.empty((n_merged, self.order), dtype=np.int64)
        merged_idx[pos_old] = self._indices
        merged_idx[pos_new] = bidx[rep]
        merged_vals = np.zeros(n_merged, dtype=self._values.dtype)
        merged_vals[pos_old] = self._values

        # One sequential fold in original batch order: np.add.at applies its
        # updates in index-array order, so every coordinate sees exactly the
        # left-fold the one-shot constructor would perform — the bit-identity
        # contract of the streaming layer.
        entry_pos = np.searchsorted(merged_keys, bkeys)
        np.add.at(merged_vals, entry_pos, bvals)

        self._indices = merged_idx
        self._values = merged_vals
        self._keys = merged_keys
        return AppendStats(int(bvals.shape[0]), n_new, updated)

    def _append_fallback(self, bidx: np.ndarray, bvals: np.ndarray) -> AppendStats:
        """Merge without linear keys (key space past int64): re-sort.

        The one-shot constructor merges the concatenation, old entries
        first, so its stable comparator keeps every duplicate group in
        concatenation order and the fold matches the one-shot left-fold
        exactly.
        """
        n_old = self.nnz
        merged = SparseTensor(
            np.concatenate([self._indices, bidx], axis=0),
            np.concatenate([self._values, bvals]),
            self._shape,
            copy=False,
            sum_duplicates=True,
        )
        self._indices = merged.indices
        self._values = merged.values
        n_new = merged.nnz - n_old
        distinct = int(np.count_nonzero(colmajor_groups(bidx)[1]))
        return AppendStats(int(bvals.shape[0]), n_new, distinct - n_new)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def tensor(self) -> SparseTensor:
        """The merged tensor, in the one-shot constructor's canonical order.

        The stored arrays are already what ``SparseTensor(all_entries, ...,
        sum_duplicates=True)`` over the concatenation of every appended
        batch holds, so the snapshot wraps them without a copy; treat it as
        read-only.  Appends replace those arrays instead of writing into
        them: the snapshot never changes afterwards.
        """
        shape = self.shape  # raises when never established
        if self.nnz == 0:
            return SparseTensor.empty(shape, dtype=self.dtype)
        return SparseTensor(self._indices, self._values, shape, copy=False)

    def to_coo(self) -> SparseTensor:
        return self.tensor

    def fingerprint(self) -> str:
        """Canonical content hash of the merged tensor (same as
        :meth:`SparseTensor.fingerprint` of :attr:`tensor`)."""
        return self.tensor.fingerprint()

    def memory_bytes(self) -> int:
        total = 0 if self._indices is None else int(
            self._indices.nbytes + self._values.nbytes
        )
        if self._keys is not None:
            total += int(self._keys.nbytes)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._shape is None:
            return "StreamingTensor(<empty>)"
        return (
            f"StreamingTensor(shape={self._shape}, nnz={self.nnz}, "
            f"batches={self.batches_applied})"
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tns(
        cls,
        path,
        *,
        shape: Optional[Sequence[int]] = None,
        chunk_nnz: Optional[int] = None,
        **kwargs,
    ) -> "StreamingTensor":
        """Stream a ``.tns`` file into a tensor, one chunk per append.

        Chunks are appended raw (``merge_duplicates=False``) so duplicates
        spanning chunk boundaries fold exactly as the one-shot reader folds
        them: the result's :attr:`tensor` is bit-identical to
        ``read_tns(path, ...)``.  Shape precedence matches the reader too —
        explicit ``shape``, else a ``# shape:`` header, else max index + 1.
        """
        from repro.data.io import DEFAULT_CHUNK_NNZ, iter_tns_chunks

        reader = iter_tns_chunks(
            path,
            chunk_nnz=DEFAULT_CHUNK_NNZ if chunk_nnz is None else chunk_nnz,
        )
        stream = cls(shape=shape, **kwargs)
        for chunk_indices, chunk_values in reader:
            stream.append(
                DeltaBatch(
                    chunk_indices,
                    chunk_values,
                    copy=False,
                    merge_duplicates=False,
                )
            )
        if stream._indices is None:
            header = reader.header_shape
            if shape is None and header is None:
                raise ValueError("empty .tns file with no shape information")
            final = tuple(shape) if shape is not None else tuple(header)
            stream._shape = tuple(int(s) for s in final)
            stream._establish(len(stream._shape))
        elif shape is None and reader.header_shape is not None:
            stream.grow_to(
                tuple(
                    max(int(a), int(b))
                    for a, b in zip(stream.shape, reader.header_shape)
                )
            )
        return stream
