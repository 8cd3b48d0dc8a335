"""Factor-matrix initialization: random and (truncated) HOSVD.

Algorithm 1 of the paper initializes the factor matrices either randomly or
with the higher-order SVD (HOSVD) [De Lathauwer et al. 2000]: ``U_n`` is set
to the leading ``R_n`` left singular vectors of the sparse matricization
``X_(n)``.  Both options are provided; the HOSVD path hands the sparse CSR
matricization to ARPACK, so it scales to large sparse tensors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from repro.core.sparse_tensor import SparseTensor
from repro.util.linalg import random_orthonormal
from repro.util.validation import check_rank_vector

__all__ = ["random_init", "hosvd_init", "initialize_factors"]


def random_init(
    tensor: SparseTensor, ranks: Sequence[int] | int, *, seed: Optional[int] = 0
) -> List[np.ndarray]:
    """Random orthonormal factor matrices, one per mode."""
    ranks = check_rank_vector(ranks, tensor.shape)
    factors = []
    for n, (size, rank) in enumerate(zip(tensor.shape, ranks)):
        factor_seed = None if seed is None else seed + n
        factors.append(random_orthonormal(size, rank, seed=factor_seed))
    return factors


def hosvd_init(
    tensor: SparseTensor,
    ranks: Sequence[int] | int,
    *,
    seed: Optional[int] = 0,
) -> List[np.ndarray]:
    """HOSVD initialization: leading left singular vectors of each ``X_(n)``.

    Each sparse CSR matricization goes to ``scipy.sparse.linalg.svds``
    (ARPACK) with a seeded start vector.  When the rank is too close to the
    matricization's dimensions for ARPACK (``rank >= min(rows, cols) - 1``),
    one side of it has at most ``rank + 1`` entries, so it is densified and
    takes a thin SVD instead.
    """
    ranks = check_rank_vector(ranks, tensor.shape)
    factors: List[np.ndarray] = []
    for mode, rank in enumerate(ranks):
        mat = tensor.matricize(mode)
        rows, cols = mat.shape
        max_arpack = min(rows, cols) - 1
        if 0 < rank <= max_arpack:
            rng = np.random.default_rng(None if seed is None else seed + mode)
            v0 = rng.standard_normal(min(rows, cols))
            u, _, _ = spla.svds(mat.astype(np.float64), k=rank, v0=v0)
            # svds returns singular values (and vectors) in ascending order.
            factors.append(np.ascontiguousarray(u[:, ::-1]))
        else:
            # Rank too close to the matrix dimensions for an iterative solver:
            # densify only this matricization (rows == shape[mode] is small in
            # that situation) and take a thin SVD.
            dense = np.asarray(mat.todense(), dtype=np.float64)
            u, _, _ = np.linalg.svd(dense, full_matrices=False)
            factors.append(np.ascontiguousarray(u[:, :rank]))
    return factors


def initialize_factors(
    tensor: SparseTensor,
    ranks: Sequence[int] | int,
    *,
    init: str | Sequence[np.ndarray] = "hosvd",
    seed: Optional[int] = 0,
) -> List[np.ndarray]:
    """Resolve an ``init`` specification into a list of factor matrices.

    ``init`` may be ``"hosvd"``, ``"random"``, or an explicit list of
    matrices (validated for shape).
    """
    ranks = check_rank_vector(ranks, tensor.shape)
    if isinstance(init, str):
        if init == "hosvd":
            return hosvd_init(tensor, ranks, seed=seed)
        if init == "random":
            return random_init(tensor, ranks, seed=seed)
        raise ValueError(f"unknown init method {init!r}")
    factors = [np.asarray(f, dtype=np.float64) for f in init]
    if len(factors) != tensor.order:
        raise ValueError(
            f"init provided {len(factors)} matrices for an order-{tensor.order} tensor"
        )
    for n, (factor, rank) in enumerate(zip(factors, ranks)):
        if factor.shape != (tensor.shape[n], rank):
            raise ValueError(
                f"init factor {n} has shape {factor.shape}, expected "
                f"{(tensor.shape[n], rank)}"
            )
    return [f.copy() for f in factors]
