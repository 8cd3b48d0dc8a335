"""Dense tensor helpers: matricization, folding and dense n-mode products.

These routines follow the Kolda-Bader conventions used throughout the paper
(Section II) and serve two purposes: they are the correctness oracles that the
sparse kernels are tested against, and they implement the small dense
contractions HOOI needs once the data has been compressed (core-tensor
formation, reconstruction).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.util.validation import check_axis

__all__ = [
    "unfold",
    "fold",
    "dense_ttm",
    "dense_ttm_chain",
    "dense_ttv",
    "tensor_norm",
]


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``n`` matricization of a dense tensor (Kolda-Bader convention).

    The result has ``tensor.shape[mode]`` rows; column index of element
    ``(i_1, ..., i_N)`` is ``sum_{k != n} i_k * prod_{m < k, m != n} I_m``
    (earlier modes vary fastest).
    """
    tensor = np.asarray(tensor)
    mode = check_axis(mode, tensor.ndim)
    return np.reshape(
        np.moveaxis(tensor, mode, 0), (tensor.shape[mode], -1), order="F"
    )


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape`` from ``X_(n)``."""
    shape = tuple(int(s) for s in shape)
    mode = check_axis(mode, len(shape))
    matrix = np.asarray(matrix)
    expected_rows = shape[mode]
    expected_cols = int(np.prod(shape, dtype=np.int64)) // max(expected_rows, 1)
    if matrix.shape != (expected_rows, expected_cols):
        raise ValueError(
            f"matrix of shape {matrix.shape} cannot be folded into {shape} "
            f"along mode {mode}"
        )
    moved_shape = (shape[mode],) + tuple(
        shape[m] for m in range(len(shape)) if m != mode
    )
    tensor = np.reshape(matrix, moved_shape, order="F")
    return np.moveaxis(tensor, 0, mode)


def dense_ttm(
    tensor: np.ndarray, matrix: np.ndarray, mode: int, *, transpose: bool = False
) -> np.ndarray:
    """Dense n-mode (tensor times matrix) product ``X ×_n U``.

    With ``transpose=True`` computes ``X ×_n Uᵀ`` (the form HOOI uses, where
    ``U`` has shape ``I_n × R_n`` and the result mode shrinks to ``R_n``).
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    mode = check_axis(mode, tensor.ndim)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    op = matrix.T if transpose else matrix
    if op.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix with {op.shape[1]} columns cannot multiply mode {mode} of "
            f"size {tensor.shape[mode]}"
        )
    unfolded = unfold(tensor, mode)
    product = op @ unfolded
    new_shape = list(tensor.shape)
    new_shape[mode] = op.shape[0]
    return fold(product, mode, new_shape)


def dense_ttm_chain(
    tensor: np.ndarray,
    matrices: Sequence[Optional[np.ndarray]],
    modes: Optional[Iterable[int]] = None,
    *,
    skip: Optional[int] = None,
    transpose: bool = False,
) -> np.ndarray:
    """Multiply ``tensor`` by one matrix per mode (a TTM chain).

    ``matrices`` holds one matrix per mode (entries may be ``None`` to skip a
    mode); ``skip`` additionally excludes a mode, which is how HOOI's
    ``X ×_{-n} Uᵀ`` is expressed.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if modes is None:
        modes = range(tensor.ndim)
    result = tensor
    for mode in modes:
        if skip is not None and mode == skip:
            continue
        matrix = matrices[mode]
        if matrix is None:
            continue
        result = dense_ttm(result, matrix, mode, transpose=transpose)
    return result


def dense_ttv(tensor: np.ndarray, vector: np.ndarray, mode: int) -> np.ndarray:
    """Dense tensor-times-vector along ``mode`` (the mode is contracted away)."""
    tensor = np.asarray(tensor, dtype=np.float64)
    vector = np.asarray(vector, dtype=np.float64).ravel()
    mode = check_axis(mode, tensor.ndim)
    if vector.shape[0] != tensor.shape[mode]:
        raise ValueError(
            f"vector of length {vector.shape[0]} cannot contract mode {mode} "
            f"of size {tensor.shape[mode]}"
        )
    return np.tensordot(tensor, vector, axes=([mode], [0]))


def tensor_norm(tensor: np.ndarray) -> float:
    """Frobenius norm of a dense tensor."""
    return float(np.linalg.norm(np.asarray(tensor).ravel()))
