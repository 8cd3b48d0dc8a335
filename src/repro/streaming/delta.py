"""Append batches for dynamic tensors.

A :class:`DeltaBatch` is a bag of ``(index tuple, value)`` entries with no
shape of its own — the receiving :class:`~repro.streaming.tensor.StreamingTensor`
grows its shape to cover the batch extents.  Batch construction applies the
same duplicate semantics the COO container pinned in its constructor
(:meth:`repro.core.sparse_tensor.SparseTensor._sum_duplicates_inplace`):
stable sort by the column-major comparator, then a sequential left-fold of
equal coordinates in storage order.  That exactness matters because the
streaming layer's headline property is *bit-identity* with one-shot
construction — any split of the same entries into batches must fold to the
same IEEE values, not merely close ones.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.sparse_tensor import (
    SparseTensor,
    as_supported_float,
    colmajor_groups,
    colmajor_order,
    resolve_dtype,
)
from repro.util.validation import check_finite

__all__ = ["DeltaBatch", "apply_delta"]


class DeltaBatch:
    """A batch of nonzero entries to append to a streaming tensor.

    Parameters
    ----------
    indices:
        Integer array of shape ``(nnz, order)``, 0-based.  Negative indices
        are rejected; there is no upper bound — the receiving tensor grows.
    values:
        Real array of shape ``(nnz,)``.
    dtype:
        Optional storage dtype (``float32``/``float64``); by default a
        supported float dtype of the input is kept and the rest promoted to
        ``float64``, matching the COO container's rule.
    copy:
        Copy the inputs (default).  ``copy=False`` trusts the caller not to
        mutate the arrays afterwards (the chunked ``.tns`` reader hands over
        freshly-built arrays, for example).
    merge_duplicates:
        Merge duplicate coordinates within the batch by summing (default),
        with the PR 5 left-fold semantics.  Pass ``False`` to keep raw
        entries — required when replaying a file whose duplicate handling
        must match :func:`repro.data.io.read_tns` bit-for-bit, because the
        one-shot reader folds *all* duplicates in file order rather than
        per-chunk first.
    """

    __slots__ = ("indices", "values")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        dtype=None,
        copy: bool = True,
        merge_duplicates: bool = True,
    ) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values)
        if dtype is not None:
            values = values.astype(resolve_dtype(dtype), copy=False)
        else:
            values = as_supported_float(values)
        if copy:
            indices = indices.copy()
            values = values.copy()
        if indices.ndim != 2:
            if indices.size == 0:
                indices = indices.reshape(0, 1)
            else:
                raise ValueError("indices must be a 2-D array of shape (nnz, order)")
        if values.ndim != 1 or values.shape[0] != indices.shape[0]:
            raise ValueError("values must be 1-D with one entry per nonzero")
        check_finite(values)
        if indices.shape[0] and (indices.min(axis=0) < 0).any():
            raise ValueError("negative indices are not allowed")
        self.indices = indices
        self.values = values
        if merge_duplicates and self.nnz:
            self._merge_duplicates()

    def _merge_duplicates(self) -> None:
        # The COO container's dedup verbatim; a batch has no shape, so the
        # comparator lexsorts instead of forming linear keys.
        order, first = colmajor_groups(self.indices)
        group_ids = np.cumsum(first) - 1
        summed = np.zeros(int(group_ids[-1]) + 1, dtype=self.values.dtype)
        np.add.at(summed, group_ids, self.values[order])
        self.indices = self.indices[order[first]]
        self.values = summed

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def order(self) -> int:
        return int(self.indices.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def extents(self) -> Tuple[int, ...]:
        """Minimal shape covering the batch (``max index + 1`` per mode)."""
        if self.nnz == 0:
            return (0,) * self.order
        return tuple(int(m) + 1 for m in self.indices.max(axis=0))

    def fingerprint(self) -> str:
        """Content hash of the batch (canonical over entry order).

        Entries are sorted by the column-major comparator before hashing,
        so two batches holding the same entries in different storage order
        fingerprint identically — the delta half of the serving cache key
        ``(base fingerprint, batch fingerprint)``.
        """
        digest = hashlib.sha256()
        digest.update(b"repro-delta-batch/1")
        digest.update(np.asarray([self.order], dtype=np.int64).tobytes())
        digest.update(self.values.dtype.str.encode("ascii"))
        if self.nnz:
            perm = colmajor_order(self.indices)
            digest.update(np.ascontiguousarray(self.indices[perm]).tobytes())
            digest.update(np.ascontiguousarray(self.values[perm]).tobytes())
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeltaBatch(nnz={self.nnz}, order={self.order}, dtype={self.dtype})"

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tensor(cls, tensor: SparseTensor, *, copy: bool = True) -> "DeltaBatch":
        """Wrap a COO tensor's stored entries as a batch (shape dropped)."""
        return cls(
            tensor.indices, tensor.values, copy=copy, merge_duplicates=False
        )

    @classmethod
    def coerce(cls, obj) -> "DeltaBatch":
        """Accept a :class:`DeltaBatch`, a :class:`SparseTensor`, or an
        ``(indices, values)`` pair, normalizing to a batch."""
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, SparseTensor):
            return cls.from_tensor(obj)
        if isinstance(obj, (tuple, list)) and len(obj) == 2:
            return cls(obj[0], obj[1])
        raise TypeError(
            "expected a DeltaBatch, SparseTensor or (indices, values) pair, "
            f"got {type(obj).__name__}"
        )


def apply_delta(
    tensor: SparseTensor,
    batch,
    *,
    shape: Optional[Sequence[int]] = None,
) -> SparseTensor:
    """One-shot append: the tensor holding ``tensor``'s and ``batch``'s entries.

    The reference semantics the incremental
    :meth:`~repro.streaming.tensor.StreamingTensor.append` must reproduce
    bit-for-bit: concatenate the entries (base first, batch in its stored
    order), grow the shape to the elementwise max of the base shape, the
    batch extents and an optional explicit ``shape``, and merge duplicates
    with the constructor's left-fold.  Values fold in the base storage
    dtype.  Also the eager path :meth:`DecompositionService.submit_delta`
    runs to materialize the updated tensor it decomposes.
    """
    batch = DeltaBatch.coerce(batch)
    if batch.order != tensor.order:
        raise ValueError(
            f"batch has {batch.order} modes but the tensor has {tensor.order}"
        )
    new_shape = tuple(
        max(int(s), int(e)) for s, e in zip(tensor.shape, batch.extents())
    )
    if shape is not None:
        if len(shape) != tensor.order:
            raise ValueError(
                f"shape has {len(shape)} modes but the tensor has {tensor.order}"
            )
        new_shape = tuple(
            max(int(s), int(e)) for s, e in zip(shape, new_shape)
        )
    indices = np.concatenate([tensor.indices, batch.indices], axis=0)
    values = np.concatenate(
        [tensor.values, batch.values.astype(tensor.dtype, copy=False)]
    )
    return SparseTensor(
        indices, values, new_shape, copy=False, sum_duplicates=True
    )
