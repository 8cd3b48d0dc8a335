"""A dense NumPy HOOI that shares no code with the engine (the test oracle).

Each factor update unfolds the dense TTM chain ``Y = X ×_{t≠n} U_tᵀ``, takes
its full SVD and keeps the leading ``R_n`` left singular vectors; the core is
``X ×_t U_tᵀ`` over every mode, and the fit comes from the explicit residual
``‖X − G ×_t U_t‖``.  Only NumPy is imported: nothing here may come from
``repro``, so agreement with the engine is independent evidence.
"""

from __future__ import annotations

import numpy as np


def unfolding(n, tensor):
    """Mode-``n`` unfolding: one row per index of mode ``n``."""
    return np.moveaxis(tensor, n, 0).reshape(tensor.shape[n], -1)


def mode_product(tensor, matrix, n):
    """``tensor ×_n matrix``: mode ``n`` takes ``matrix.shape[0]`` indices."""
    return np.moveaxis(np.tensordot(matrix, tensor, axes=(1, n)), 0, n)


def leading_left(matrix, rank):
    """The leading ``rank`` left singular vectors, from a full SVD."""
    left, _, _ = np.linalg.svd(matrix, full_matrices=False)
    return left[:, :rank]


def project(tensor, factors, skip=None):
    """``tensor ×_t U_tᵀ`` over every mode but ``skip``."""
    for t, factor in enumerate(factors):
        if t != skip:
            tensor = mode_product(tensor, factor.T, t)
    return tensor


def explicit_fit(tensor, core, factors):
    """``1 − ‖X − G ×_t U_t‖ / ‖X‖`` from the dense reconstruction."""
    approx = core
    for t, factor in enumerate(factors):
        approx = mode_product(approx, factor, t)
    return 1.0 - np.linalg.norm(tensor - approx) / np.linalg.norm(tensor)


def oracle_hooi(tensor, ranks, init, sweeps):
    """``sweeps`` HOOI sweeps from the factors ``init``: factors, core, fits."""
    factors = [np.array(f, dtype=np.float64) for f in init]
    fits = []
    for _ in range(sweeps):
        for n in range(tensor.ndim):
            chain = project(tensor, factors, skip=n)
            factors[n] = leading_left(unfolding(n, chain), ranks[n])
        core = project(tensor, factors)
        fits.append(explicit_fit(tensor, core, factors))
    return factors, core, fits


def subspace_sine(a, b):
    """``‖B − A(AᵀB)‖₂``, the sine of the largest principal angle of the spans."""
    return float(np.linalg.norm(b - a @ (a.T @ b), 2))
