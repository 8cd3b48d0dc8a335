"""COO sparse tensor container.

The paper operates on general N-mode sparse tensors stored as coordinate
lists (one integer index per mode plus a value per nonzero).  This module
provides that container together with the handful of structural operations
every other subsystem needs: deduplication, mode matricization (as a SciPy
CSR matrix), slicing by mode index, permutation of modes, conversion to and
from dense arrays, and norm/fiber statistics.

Values are stored in ``float64`` by default; ``float32`` is supported as a
first-class storage dtype (the engine's dtype policy halves the memory
traffic of the TTMc phase with it).  Structural operations preserve the
storage dtype; anything that is not a supported float dtype is promoted to
``float64`` on construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.util.validation import check_axis, check_finite, check_shape_vector

__all__ = [
    "SparseTensor",
    "SUPPORTED_DTYPES",
    "resolve_dtype",
    "as_supported_float",
    "DeltaFingerprint",
    "fingerprint_with_delta",
]

#: Value dtypes the library computes in (the engine's dtype policy).
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_supported_float(array) -> np.ndarray:
    """Return ``array`` with a policy dtype: float32/float64 kept, rest promoted.

    This is the single promotion rule every module applies to operands it
    receives (tensor values, factor matrices, dense operators): the two
    supported float dtypes pass through untouched, anything else — integers,
    bools, half or extended precision — is promoted to ``float64``.
    """
    array = np.asarray(array)
    if array.dtype not in SUPPORTED_DTYPES:
        array = array.astype(np.float64)
    return array


def resolve_dtype(dtype) -> np.dtype:
    """Normalize a dtype policy specification to ``float32`` or ``float64``.

    Accepts the strings ``"float32"``/``"float64"``, the NumPy scalar types,
    or dtype objects; anything else is rejected so an engine never silently
    computes in an unintended precision.
    """
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported dtype {dtype!r}: the dtype policy allows "
            "float32 or float64"
        )
    return resolved


#: Per-lane seeds of the multiset hash (arbitrary odd 64-bit constants).
_LANE_SEEDS = (
    0x243F6A8885A308D3,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over a uint64 array (wraps mod 2^64)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _value_bits(values: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a float array, widened to uint64."""
    if values.dtype == np.float32:
        return np.ascontiguousarray(values).view(np.uint32).astype(np.uint64)
    return np.ascontiguousarray(values).view(np.uint64)


def _entry_lanes(indices: np.ndarray, values: np.ndarray) -> Tuple[int, ...]:
    """Commutative multiset hash of ``(index tuple, value)`` entries.

    Each entry is hashed independently (splitmix64 over its index columns
    and value bits) and the per-entry hashes are *summed* per lane with
    wrap-around, so the result depends only on the multiset of entries —
    never on storage order — and two multisets combine by adding lanes.
    Four independent lanes put accidental collisions far below anything a
    cache could observe; this is a structural identity, not a cryptographic
    one (the final digest is derived via sha256 in
    :meth:`DeltaFingerprint.hexdigest`).
    """
    n = int(values.shape[0])
    if n == 0:
        return (0, 0, 0, 0)
    vbits = _value_bits(values)
    cols = np.ascontiguousarray(indices).astype(np.uint64)
    lanes = []
    for seed in _LANE_SEEDS:
        h = np.full(n, np.uint64(seed), dtype=np.uint64)
        for c in range(cols.shape[1]):
            salt = np.uint64((0x9E3779B97F4A7C15 * (c + 1)) & _MASK64)
            h = _mix64(h ^ (cols[:, c] + salt))
        h = _mix64(h ^ vbits)
        lanes.append(int(h.sum(dtype=np.uint64)))
    return tuple(lanes)


@dataclass(frozen=True)
class DeltaFingerprint:
    """Incrementally-extendable content identity of a nonzero multiset.

    :meth:`SparseTensor.fingerprint` is a sha256 over the *sorted* nonzeros
    — canonical, but appending a batch means re-hashing everything stored so
    far.  ``DeltaFingerprint`` carries the identity in a form that extends
    in O(batch) work: four 64-bit lanes of a commutative multiset hash plus
    the shape, dtype and entry count.  :func:`fingerprint_with_delta` folds
    a batch in by adding its lanes; :meth:`hexdigest` derives a stable hex
    digest (via sha256 over the lanes and metadata) whenever a string key
    is needed.

    The identity is over the stored entries *as a multiset*: duplicate
    coordinates contribute one entry each, and storage order never matters.
    It is therefore equal for any split of the same entries into batches —
    the equivalence the streaming layer's hypothesis tests pin down.
    """

    shape: Tuple[int, ...]
    dtype: str
    count: int
    lanes: Tuple[int, int, int, int]

    @classmethod
    def empty(cls, shape: Sequence[int] = (), dtype="float64") -> "DeltaFingerprint":
        return cls(
            shape=tuple(int(s) for s in shape),
            dtype=np.dtype(resolve_dtype(dtype)).str,
            count=0,
            lanes=(0, 0, 0, 0),
        )

    def hexdigest(self) -> str:
        """A stable hex digest of the fingerprint (sha256 over its fields)."""
        digest = hashlib.sha256()
        digest.update(b"repro-delta-fingerprint/1")
        digest.update(np.asarray(self.shape, dtype=np.int64).tobytes())
        digest.update(self.dtype.encode("ascii"))
        digest.update(np.asarray([self.count], dtype=np.int64).tobytes())
        digest.update(np.asarray(self.lanes, dtype=np.uint64).tobytes())
        return digest.hexdigest()


def fingerprint_with_delta(
    base: DeltaFingerprint,
    indices,
    values=None,
    *,
    shape: Sequence[int] | None = None,
) -> DeltaFingerprint:
    """Extend a :class:`DeltaFingerprint` with a batch of appended nonzeros.

    ``indices``/``values`` may also be passed as one object with those
    attributes (a :class:`SparseTensor` or a
    :class:`repro.streaming.DeltaBatch`).  Values are hashed in the base's
    dtype (the streaming layer stores batches cast to its storage dtype, so
    the incremental hash must see the stored bits).  The resulting shape is
    the elementwise max of the base shape and the batch extents unless an
    explicit ``shape`` is given.

    Equivalence contract (hypothesis-tested): for any tensor ``t`` and batch
    ``(bi, bv)``, ``fingerprint_with_delta(t.delta_fingerprint(), bi, bv)``
    equals the ``delta_fingerprint()`` of the tensor holding the
    concatenated entries — no re-hash of the prior nonzeros.
    """
    if values is None:
        values = indices.values
        indices = indices.indices
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values)
    if indices.ndim != 2:
        if indices.size == 0:
            indices = indices.reshape(0, max(len(base.shape), 1))
        else:
            raise ValueError("indices must be a 2-D array of shape (nnz, order)")
    if base.shape and indices.shape[1] != len(base.shape):
        raise ValueError(
            f"batch has {indices.shape[1]} modes but the base fingerprint "
            f"has {len(base.shape)}"
        )
    values = values.astype(np.dtype(base.dtype), copy=False)
    if shape is not None:
        new_shape = tuple(int(s) for s in shape)
    else:
        extents = (
            tuple(int(m) + 1 for m in indices.max(axis=0))
            if indices.shape[0]
            else (0,) * indices.shape[1]
        )
        if base.shape:
            new_shape = tuple(
                max(s, e) for s, e in zip(base.shape, extents)
            )
        else:
            new_shape = extents
    delta = _entry_lanes(indices, values)
    lanes = tuple(
        int(x)
        for x in (
            np.asarray(base.lanes, dtype=np.uint64)
            + np.asarray(delta, dtype=np.uint64)
        )
    )
    return DeltaFingerprint(
        shape=new_shape,
        dtype=base.dtype,
        count=base.count + int(values.shape[0]),
        lanes=lanes,  # type: ignore[arg-type]
    )


class SparseTensor:
    """An N-mode sparse tensor in coordinate (COO) format.

    Parameters
    ----------
    indices:
        Integer array of shape ``(nnz, order)``; ``indices[t, n]`` is the
        mode-``n`` index of the ``t``-th nonzero (0-based).
    values:
        Real array of shape ``(nnz,)``.
    shape:
        Mode sizes.  Indices must satisfy ``0 <= indices[:, n] < shape[n]``.
    copy:
        When ``True`` (default) the inputs are copied; when ``False`` the
        arrays are used as-is (they are still validated).
    sum_duplicates:
        When ``True``, duplicate coordinates are merged by summing values.
    dtype:
        Storage dtype of the values (``float32`` or ``float64``).  When
        omitted, a supported float dtype of the input is preserved and
        everything else is promoted to ``float64``.
    """

    __slots__ = ("indices", "values", "shape")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Sequence[int],
        *,
        copy: bool = True,
        sum_duplicates: bool = False,
        dtype=None,
    ) -> None:
        shape = check_shape_vector(shape)
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
                indices = indices.reshape(0, len(shape))
            else:
                raise ValueError("indices must be a 2-D array of shape (nnz, order)")
        if indices.shape[1] != len(shape):
            raise ValueError(
                f"indices have {indices.shape[1]} columns but shape has "
                f"{len(shape)} modes"
            )
        if values.ndim != 1 or values.shape[0] != indices.shape[0]:
            raise ValueError("values must be 1-D with one entry per nonzero")
        check_finite(values)
        if indices.shape[0]:
            mins = indices.min(axis=0)
            maxs = indices.max(axis=0)
            if (mins < 0).any():
                raise ValueError("negative indices are not allowed")
            if (maxs >= np.asarray(shape, dtype=np.int64)).any():
                bad = int(np.argmax(maxs >= np.asarray(shape, dtype=np.int64)))
                raise ValueError(
                    f"index {int(maxs[bad])} out of range for mode {bad} of size "
                    f"{shape[bad]}"
                )
        self.indices = indices
        self.values = values
        self.shape: Tuple[int, ...] = shape
        if sum_duplicates:
            self._sum_duplicates_inplace()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, array: np.ndarray, *, tol: float = 0.0) -> "SparseTensor":
        """Build a sparse tensor from a dense array, dropping entries with
        ``abs(value) <= tol``."""
        array = as_supported_float(array)
        if array.ndim == 0:
            raise ValueError("cannot build a SparseTensor from a scalar")
        mask = np.abs(array) > tol
        coords = np.argwhere(mask)
        vals = array[mask]
        return cls(coords, vals, array.shape, copy=False)

    @classmethod
    def empty(cls, shape: Sequence[int], *, dtype=np.float64) -> "SparseTensor":
        """An all-zero tensor of the given shape."""
        shape = check_shape_vector(shape)
        return cls(
            np.empty((0, len(shape)), dtype=np.int64),
            np.empty(0, dtype=resolve_dtype(dtype)),
            shape,
            copy=False,
        )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Number of modes (the paper's ``N``)."""
        return len(self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.values.shape[0])

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the values."""
        return self.values.dtype

    @property
    def size(self) -> int:
        """Total number of entries of the dense equivalent."""
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def density(self) -> float:
        return self.nnz / self.size if self.size else 0.0

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.values))

    def fingerprint(self) -> str:
        """Content hash of the tensor: shape, value dtype and stored nonzeros.

        The hash is *canonical over the nonzero order*: nonzeros are sorted
        by their linear index before hashing, so two tensors holding the
        same coordinates/values in a different storage order fingerprint
        identically (duplicate coordinates keep their relative order and are
        hashed as stored — fingerprint a :meth:`deduplicate`-d tensor when
        duplicate-insensitive identity is needed).  The dtype participates,
        so a ``float32`` copy of a ``float64`` tensor is a different tensor.

        This is the identity the serving layer's result cache keys on
        (together with :meth:`repro.core.hooi.HOOIOptions.options_fingerprint`):
        any change to the shape, any single index, or any single value —
        including a sign flip or a last-ulp perturbation — changes the hash.
        """
        digest = hashlib.sha256()
        digest.update(b"repro-sparse-tensor/1")
        digest.update(np.asarray(self.shape, dtype=np.int64).tobytes())
        digest.update(self.values.dtype.str.encode("ascii"))
        if self.nnz:
            order = np.argsort(self.linear_indices(), kind="stable")
            digest.update(np.ascontiguousarray(self.indices[order]).tobytes())
            digest.update(np.ascontiguousarray(self.values[order]).tobytes())
        return digest.hexdigest()

    def delta_fingerprint(self) -> DeltaFingerprint:
        """The incrementally-extendable form of :meth:`fingerprint`.

        Hashes the stored entries as an order-insensitive multiset
        (duplicates contribute one entry each, as stored).  Appending a
        batch extends the result in O(batch) via
        :func:`fingerprint_with_delta` instead of re-hashing every prior
        nonzero — the identity the streaming layer maintains per append.
        """
        return DeltaFingerprint(
            shape=self.shape,
            dtype=self.values.dtype.str,
            count=self.nnz,
            lanes=_entry_lanes(self.indices, self.values),  # type: ignore[arg-type]
        )

    def memory_bytes(self) -> int:
        """Bytes held by the coordinate and value arrays.

        The COO footprint is ``nnz × (order × 8 + itemsize)`` — one int64
        per mode per nonzero plus the value.  Compressed formats
        (:meth:`repro.sparse.csf.CSFTensor.memory_bytes`) report the same
        measure so footprints compare directly.
        """
        return int(self.indices.nbytes + self.values.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )

    # ------------------------------------------------------------------ #
    # Structural operations
    # ------------------------------------------------------------------ #
    def copy(self) -> "SparseTensor":
        return SparseTensor(self.indices, self.values, self.shape, copy=True)

    def astype(self, dtype) -> "SparseTensor":
        """Return the tensor with values stored in the given dtype.

        A no-op (returning ``self``) when the dtype already matches, so the
        engine can apply its dtype policy unconditionally without copying.
        """
        dtype = resolve_dtype(dtype)
        if self.values.dtype == dtype:
            return self
        return SparseTensor(
            self.indices, self.values.astype(dtype), self.shape, copy=False
        )

    def astype_shape(self, shape: Sequence[int]) -> "SparseTensor":
        """Return the same nonzeros viewed in a (possibly larger) shape."""
        return SparseTensor(self.indices, self.values, shape, copy=False)

    def _sum_duplicates_inplace(self) -> None:
        if self.nnz == 0:
            return
        keys = self.linear_indices()
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        uniq_mask = np.empty(keys_sorted.shape, dtype=bool)
        uniq_mask[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=uniq_mask[1:])
        group_ids = np.cumsum(uniq_mask) - 1
        summed = np.zeros(int(group_ids[-1]) + 1, dtype=self.values.dtype)
        np.add.at(summed, group_ids, self.values[order])
        first_pos = order[uniq_mask]
        self.indices = self.indices[first_pos]
        self.values = summed

    def deduplicate(self) -> "SparseTensor":
        """Return a tensor with duplicate coordinates merged (values summed)."""
        out = self.copy()
        out._sum_duplicates_inplace()
        return out

    def drop_zeros(self, tol: float = 0.0) -> "SparseTensor":
        """Remove explicitly-stored entries with ``abs(value) <= tol``."""
        mask = np.abs(self.values) > tol
        return SparseTensor(
            self.indices[mask], self.values[mask], self.shape, copy=False
        )

    def linear_indices(self) -> np.ndarray:
        """Column-major (first mode fastest) linear index of every nonzero."""
        strides = np.ones(self.order, dtype=np.int64)
        for n in range(1, self.order):
            strides[n] = strides[n - 1] * self.shape[n - 1]
        return self.indices @ strides

    def permute_modes(self, perm: Sequence[int]) -> "SparseTensor":
        """Return the tensor with modes reordered according to ``perm``."""
        perm = list(perm)
        if sorted(perm) != list(range(self.order)):
            raise ValueError(f"perm must be a permutation of 0..{self.order - 1}")
        new_shape = tuple(self.shape[p] for p in perm)
        return SparseTensor(self.indices[:, perm], self.values, new_shape, copy=False)

    def scale(self, alpha: float) -> "SparseTensor":
        """Return ``alpha * X``."""
        return SparseTensor(self.indices, alpha * self.values, self.shape, copy=False)

    def mode_slice(self, mode: int, index: int) -> "SparseTensor":
        """Return the slice ``X[..., index, ...]`` (mode removed) as a sparse tensor."""
        mode = check_axis(mode, self.order)
        if not 0 <= index < self.shape[mode]:
            raise ValueError(f"index {index} out of range for mode {mode}")
        mask = self.indices[:, mode] == index
        keep = [m for m in range(self.order) if m != mode]
        new_shape = tuple(self.shape[m] for m in keep)
        if not keep:
            raise ValueError("cannot slice a 1-mode tensor down to order 0")
        return SparseTensor(
            self.indices[np.ix_(mask, keep)] if mask.any() else
            np.empty((0, len(keep)), dtype=np.int64),
            self.values[mask],
            new_shape,
            copy=False,
        )

    def select_nonzeros(self, positions: np.ndarray) -> "SparseTensor":
        """Return a tensor containing only the nonzeros at ``positions``."""
        positions = np.asarray(positions, dtype=np.int64)
        return SparseTensor(
            self.indices[positions], self.values[positions], self.shape, copy=False
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialize the dense array (only sensible for small tensors)."""
        if self.size > 50_000_000:
            raise MemoryError(
                f"refusing to densify a tensor with {self.size} entries"
            )
        out = np.zeros(self.shape, dtype=self.values.dtype)
        if self.nnz:
            np.add.at(out, tuple(self.indices.T), self.values)
        return out

    def matricize(self, mode: int) -> sp.csr_matrix:
        """Mode-``n`` matricization ``X_(n)`` as a SciPy CSR matrix.

        Follows the Kolda-Bader convention: rows are mode-``n`` indices and
        the column index of nonzero ``(i_1, ..., i_N)`` is
        ``sum_{k != n} i_k * prod_{m < k, m != n} I_m`` (earlier modes vary
        fastest).
        """
        mode = check_axis(mode, self.order)
        rows = self.indices[:, mode]
        cols = np.zeros(self.nnz, dtype=np.int64)
        stride = 1
        for k in range(self.order):
            if k == mode:
                continue
            cols += self.indices[:, k] * stride
            stride *= self.shape[k]
        ncols = int(stride)
        mat = sp.coo_matrix(
            (self.values, (rows, cols)), shape=(self.shape[mode], ncols)
        )
        return mat.tocsr()

    # ------------------------------------------------------------------ #
    # Statistics used by the partitioners and experiment harness
    # ------------------------------------------------------------------ #
    def mode_counts(self, mode: int) -> np.ndarray:
        """Number of nonzeros in each mode-``n`` slice (length ``shape[mode]``)."""
        mode = check_axis(mode, self.order)
        return np.bincount(self.indices[:, mode], minlength=self.shape[mode])

    def nonempty_rows(self, mode: int) -> np.ndarray:
        """Sorted array of mode-``n`` indices that own at least one nonzero."""
        mode = check_axis(mode, self.order)
        return np.unique(self.indices[:, mode])

    def allclose(self, other: "SparseTensor", *, rtol: float = 1e-10,
                 atol: float = 1e-12) -> bool:
        """Compare two sparse tensors entry-wise (after deduplication)."""
        if self.shape != other.shape:
            return False
        a = self.deduplicate()
        b = other.deduplicate()
        ka, kb = a.linear_indices(), b.linear_indices()
        pa, pb = np.argsort(ka), np.argsort(kb)
        ka, kb = ka[pa], kb[pb]
        va, vb = a.values[pa], b.values[pb]
        # Entries present in only one tensor must be ~zero.
        common_a = np.isin(ka, kb)
        common_b = np.isin(kb, ka)
        if not np.allclose(va[~common_a], 0.0, atol=atol):
            return False
        if not np.allclose(vb[~common_b], 0.0, atol=atol):
            return False
        return np.allclose(va[common_a], vb[common_b], rtol=rtol, atol=atol)
