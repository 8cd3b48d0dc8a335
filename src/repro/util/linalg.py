"""Small dense linear-algebra helpers shared by the TRSVD and HOOI code."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "orthonormalize",
    "random_orthonormal",
    "normalize_columns",
    "gram_leading_eigvecs",
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


def gram_leading_eigvecs(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Leading left singular vectors of ``matrix`` via the Gram matrix.

    This is the dense-Tucker approach the paper contrasts against (forming
    ``Y Yᵀ`` and taking its eigenvectors); it is exposed both as a correctness
    oracle in the tests and as part of the dense-HOOI baseline.  Only suitable
    when ``matrix.shape[0]`` is modest.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rank = int(rank)
    if rank <= 0:
        raise ValueError("rank must be positive")
    rank = min(rank, matrix.shape[0])
    gram = matrix @ matrix.T
    # eigh returns ascending eigenvalues; take the trailing `rank` columns.
    _, vecs = np.linalg.eigh(gram)
    lead = vecs[:, ::-1][:, :rank]
    return np.ascontiguousarray(lead)
