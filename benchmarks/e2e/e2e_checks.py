"""Output checks that fail the benchmark run.

The core check shares no code with the engine: it recomputes
``G = X ×_1 U_1ᵀ ⋯ ×_N U_Nᵀ`` straight from the nonzeros and the returned
factors, in chunks of nonzeros, with plain NumPy broadcasting.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: Nonzeros per chunk of the independent core recomputation.
CHUNK = 4096


def independent_core(indices: np.ndarray, values: np.ndarray,
                     factors: Sequence[np.ndarray]) -> np.ndarray:
    """``Σ_nz x · U_1[i_1, :] ∘ ⋯ ∘ U_N[i_N, :]``, accumulated chunk by chunk."""
    ranks = tuple(int(f.shape[1]) for f in factors)
    core = np.zeros(int(np.prod(ranks)))
    for lo in range(0, values.shape[0], CHUNK):
        hi = min(lo + CHUNK, values.shape[0])
        rows = np.asarray(values[lo:hi], dtype=np.float64)[:, None]
        for n, factor in enumerate(factors):
            picked = np.asarray(factor, dtype=np.float64)[indices[lo:hi, n]]
            rows = (rows[:, :, None] * picked[:, None, :]).reshape(hi - lo, -1)
        core += rows.sum(axis=0)
    return core.reshape(ranks)


def check_result(tensor, result) -> List[str]:
    """Orthonormal factors, a monotone fit history and an independently equal core."""
    problems = []
    factors = result.decomposition.factors
    for n, factor in enumerate(factors):
        gram = factor.T @ factor
        err = float(np.abs(gram - np.eye(gram.shape[0])).max())
        if err > 1e-8:
            problems.append(f"factor {n} is not orthonormal (max |UᵀU - I| = {err:.2e})")
    fits = list(result.fit_history)
    drops = [b - a for a, b in zip(fits, fits[1:]) if b < a - 1e-9]
    if drops:
        problems.append(f"fit decreased between sweeps by {-min(drops):.2e}")
    expected = independent_core(tensor.indices, tensor.values, factors)
    core = np.asarray(result.decomposition.core, dtype=np.float64)
    rel = float(np.linalg.norm(core - expected) / max(np.linalg.norm(expected), 1e-300))
    if rel > 1e-8:
        problems.append(f"core differs from the independent recomputation (rel {rel:.2e})")
    return problems


def check_same_fit(fits: Sequence[float], tol: float, what: str) -> List[str]:
    """Every fit equal to the first within ``tol``."""
    if not fits:
        return []
    spread = max(abs(f - fits[0]) for f in fits)
    if spread > tol:
        return [f"{what}: fits differ by {spread:.2e} (> {tol:g})"]
    return []


def check_same_result(served, reference, tol: float, what: str) -> List[str]:
    """Fit history and core of two results agree within ``tol``."""
    a = np.asarray(served.fit_history)
    b = np.asarray(reference.fit_history)
    if a.shape != b.shape or (a.size and float(np.abs(a - b).max()) > tol):
        return [f"{what}: fit history {a.tolist()} != {b.tolist()}"]
    core_a = np.asarray(served.decomposition.core, dtype=np.float64)
    core_b = np.asarray(reference.decomposition.core, dtype=np.float64)
    rel = float(np.linalg.norm(core_a - core_b) / max(np.linalg.norm(core_b), 1e-300))
    if rel > tol:
        return [f"{what}: cores differ (rel {rel:.2e})"]
    return []
