"""Small dense linear-algebra helpers shared by the TRSVD and HOOI code."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "complete_basis",
    "orthonormalize",
    "random_orthonormal",
    "normalize_columns",
]


def orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Return an orthonormal basis that spans the columns of ``matrix``.

    The result always has exactly ``matrix.shape[1]`` orthonormal columns:
    the ``Q`` of a Householder QR factorization, which is orthonormal by
    construction and holds every input column (``A = QR``).  Where the
    input loses rank, ``Q`` completes the basis with directions orthogonal
    to the rest (useful when a factor matrix loses rank during HOOI).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("orthonormalize expects a 2-D array")
    rows, cols = matrix.shape
    if cols > rows:
        raise ValueError(
            f"cannot build {cols} orthonormal columns in dimension {rows}"
        )
    q, _ = np.linalg.qr(matrix)
    return q


def complete_basis(factor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill the zero columns of a factor living on ``rows``, in place.

    A solver on the sorted ``rows`` of an ``I × R`` factor returns only
    ``min(len(rows), R)`` columns.  Each missing one becomes a unit vector
    on one of the lowest-index rows outside ``rows``: disjoint supports, so
    the result is exactly orthonormal and deterministic, with no QR.
    """
    got = min(len(rows), factor.shape[1])
    missing = factor.shape[1] - got
    if missing:
        free = np.setdiff1d(np.arange(factor.shape[0]), rows, assume_unique=True)
        factor[free[:missing], np.arange(got, factor.shape[1])] = 1.0
    return factor


def random_orthonormal(
    rows: int, cols: int, seed: Optional[int] = None
) -> np.ndarray:
    """Return a ``rows x cols`` matrix with orthonormal columns (Haar-ish)."""
    if cols > rows:
        raise ValueError(f"cannot build {cols} orthonormal columns in dimension {rows}")
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.standard_normal((rows, cols)))


def normalize_columns(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scale each column of ``matrix`` to unit 2-norm.

    Returns ``(normalized, norms)``; zero columns are left untouched and get a
    reported norm of 1 to keep downstream divisions safe (the CP-ALS baseline
    relies on this convention).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return matrix / safe, np.where(norms > 0, norms, 1.0)
