"""The Tucker decomposition container and fit computations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dense import dense_ttm_chain, fold, tensor_norm
from repro.core.kron import batch_kron_rows
from repro.core.sparse_tensor import SparseTensor, as_supported_float

__all__ = ["TuckerTensor", "core_from_ttmc", "fit_from_core", "tucker_fit"]


@dataclass
class TuckerTensor:
    """A Tucker decomposition ``[[G; U_1, ..., U_N]]``.

    ``core`` has shape ``(R_1, ..., R_N)`` and ``factors[n]`` has shape
    ``(I_n, R_n)``.  In HOOI the factors are orthonormal by construction
    (columns are singular vectors), which several fit shortcuts rely on.
    """

    core: np.ndarray
    factors: List[np.ndarray]

    def __post_init__(self) -> None:
        self.core = as_supported_float(self.core)
        self.factors = [as_supported_float(f) for f in self.factors]
        if self.core.ndim != len(self.factors):
            raise ValueError(
                f"core has order {self.core.ndim} but there are "
                f"{len(self.factors)} factor matrices"
            )
        for n, factor in enumerate(self.factors):
            if factor.ndim != 2:
                raise ValueError(f"factor {n} must be 2-D")
            if factor.shape[1] != self.core.shape[n]:
                raise ValueError(
                    f"factor {n} has {factor.shape[1]} columns but the core's "
                    f"mode-{n} size is {self.core.shape[n]}"
                )

    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return self.core.ndim

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the (implicit) full tensor."""
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ranks(self) -> Tuple[int, ...]:
        return tuple(self.core.shape)

    def core_norm(self) -> float:
        return float(np.linalg.norm(self.core.ravel()))

    def norm(self) -> float:
        """Frobenius norm of the reconstructed tensor.

        Equals ``||G||`` when all factors are orthonormal; computed exactly
        through Gram matrices otherwise.
        """
        if all(_is_orthonormal(f) for f in self.factors):
            return self.core_norm()
        contracted = self.core.copy()
        for n, factor in enumerate(self.factors):
            gram = factor.T @ factor
            contracted = np.moveaxis(
                np.tensordot(contracted, gram, axes=([n], [0])), -1, n
            )
        value = float(np.tensordot(self.core, contracted, axes=self.order))
        return float(np.sqrt(max(value, 0.0)))

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense tensor ``G ×_1 U_1 ... ×_N U_N``."""
        return dense_ttm_chain(self.core, self.factors, transpose=False)

    def reconstruct_entries(self, indices: np.ndarray) -> np.ndarray:
        """Evaluate the model at the given coordinates without densifying.

        ``indices`` is ``(m, N)``; the result is a length ``m`` vector.  Used
        for held-out prediction in the examples and for large-tensor fits.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != self.order:
            raise ValueError(f"indices must be (m, {self.order})")
        rows = [self.factors[n][indices[:, n]] for n in range(self.order)]
        kron = batch_kron_rows(rows)
        return kron @ self.core.ravel(order="F")

    def compression_ratio(self, nnz: Optional[int] = None) -> float:
        """Stored entries of the original over stored entries of the model."""
        model = self.core.size + sum(f.size for f in self.factors)
        original = nnz if nnz is not None else int(np.prod(self.shape))
        return float(original) / float(model)


def _is_orthonormal(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    gram = matrix.T @ matrix
    return bool(np.allclose(gram, np.eye(matrix.shape[1]), atol=tol))


def core_from_ttmc(
    last_mode_ttmc: np.ndarray, last_factor: np.ndarray, ranks: Sequence[int]
) -> np.ndarray:
    """Form the core tensor from the mode-``N`` TTMc result.

    Algorithm 3, line 10: after the mode-``N`` TTMc, ``Y_(N)`` already equals
    ``(X ×_1 U_1ᵀ ... ×_{N-1} U_{N-1}ᵀ)_(N)`` of shape ``I_N × prod_{t<N} R_t``;
    multiplying by ``U_Nᵀ`` and folding yields ``G``.
    """
    ranks = tuple(int(r) for r in ranks)
    core_mat = last_factor.T @ last_mode_ttmc
    return fold(core_mat, len(ranks) - 1, ranks)


def fit_from_core(norm_x: float, core: np.ndarray) -> float:
    """Fit ``1 - ||X - X̂|| / ||X||`` from the core norm (orthonormal factors).

    With orthonormal factors the residual satisfies
    ``||X - X̂||² = ||X||² - ||G||²``, so the fit needs no reconstruction —
    this is the quantity every HOOI driver monitors for convergence.
    """
    if not norm_x:
        return 1.0
    core_norm = float(np.linalg.norm(np.asarray(core).ravel()))
    residual_sq = max(norm_x**2 - core_norm**2, 0.0)
    return 1.0 - float(np.sqrt(residual_sq)) / norm_x


def tucker_fit(
    tensor: SparseTensor,
    decomposition: TuckerTensor,
    *,
    assume_orthonormal: bool = True,
) -> float:
    """Fit ``1 - ||X - X̂|| / ||X||`` of a Tucker model to a sparse tensor.

    With orthonormal factors (the HOOI invariant) this is
    :func:`fit_from_core`, which needs no reconstruction.  The general path
    evaluates the model at the nonzero coordinates and corrects for the dense
    model mass, which is exact only when X̂ is evaluated densely; therefore the
    general path densifies and is meant for small tensors / tests.
    """
    norm_x = tensor.norm()
    if norm_x == 0.0:
        return 1.0
    if assume_orthonormal and all(_is_orthonormal(f) for f in decomposition.factors):
        return fit_from_core(norm_x, decomposition.core)
    dense = tensor.to_dense()
    residual = tensor_norm(dense - decomposition.to_dense())
    return 1.0 - residual / norm_x
