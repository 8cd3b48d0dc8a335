"""Micro-benchmark: pooled vs per-call TTMc buffer allocation.

The engine's :class:`~repro.engine.workspace.WorkspacePool` preallocates and
reuses the ``(I_n × ∏R_t)`` TTMc output across modes and iterations.  This
benchmark isolates exactly that effect: a full per-mode TTMc sweep,
identical numeric work, with fresh allocations per call versus pooled
buffers — and asserts that the pooled variant performs zero allocations
after warm-up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HOOIOptions, SymbolicTTMc, hooi, ttmc_matricized
from repro.core.kron import kron_row_length
from repro.data import power_law_sparse_tensor
from repro.engine import WorkspacePool
from repro.util.linalg import random_orthonormal

RANK = 10


@pytest.fixture(scope="module")
def tensor():
    return power_law_sparse_tensor((3000, 2000, 2500), 120_000, exponents=0.8, seed=0)


@pytest.fixture(scope="module")
def factors(tensor):
    return [random_orthonormal(s, RANK, seed=i) for i, s in enumerate(tensor.shape)]


@pytest.fixture(scope="module")
def symbolic(tensor):
    return SymbolicTTMc(tensor)


def _sweep(tensor, factors, symbolic, workspace):
    """One HOOI-iteration-worth of TTMc: all modes, optionally pooled."""
    results = []
    for mode in range(tensor.order):
        width = kron_row_length(
            [factors[t].shape[1] for t in range(tensor.order) if t != mode]
        )
        # Per-mode tag: unlike the engine (which consumes each Y_(n) before
        # the next take), this sweep keeps all modes' outputs live at once,
        # so coinciding (I_n, width) shapes must not share a buffer.
        out = (
            workspace.take((tensor.shape[mode], width), tensor.dtype,
                           tag=f"out-{mode}")
            if workspace is not None
            else None
        )
        results.append(
            ttmc_matricized(
                tensor, factors, mode,
                symbolic=symbolic[mode], out=out,
            )
        )
    return results


def test_ttmc_sweep_per_call_allocation(benchmark, tensor, factors, symbolic):
    """Baseline: every mode of every sweep allocates Y_(n) fresh."""
    results = benchmark(_sweep, tensor, factors, symbolic, None)
    assert len(results) == tensor.order


def test_ttmc_sweep_pooled_allocation(benchmark, tensor, factors, symbolic):
    """Pooled: the same sweep reuses the per-mode buffers on every iteration."""
    pool = WorkspacePool()
    _sweep(tensor, factors, symbolic, pool)          # warm-up fills the pool
    allocations_warm = pool.allocations

    results = benchmark(_sweep, tensor, factors, symbolic, pool)

    assert len(results) == tensor.order
    # Steady state performs zero allocations: every buffer request is a reuse.
    assert pool.allocations == allocations_warm
    assert pool.reuses > 0
    # The pooled sweep is numerically identical to the allocating one.
    reference = _sweep(tensor, factors, symbolic, None)
    assert np.allclose(results[0], reference[0])


def test_hooi_end_to_end_pooled(benchmark, tensor):
    """Full HOOI with a shared pool (what the engine does by default)."""
    pool = WorkspacePool()
    options = HOOIOptions(max_iterations=2, init="random", seed=0)

    result = benchmark(hooi, tensor, RANK, options, workspace=pool)

    assert np.isfinite(result.fit)
    # One Y_(n) buffer per distinct (I_n, width).
    assert pool.num_buffers > 0
    assert pool.reuses > 0
