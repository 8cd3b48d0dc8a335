"""Benchmark: compiled (numba) vs vectorized (numpy) kernel tier.

The same unit of work as the format sweep — one HOOI-iteration-worth of
TTMc, every mode's ``Y_(n)`` — on the 4-mode power-law tensor, with the
``kernel`` axis flipped.  The compiled tier fuses each COO row / CSF level
into one pass (gather + multiply + accumulate, no Kronecker temporaries),
where the numpy tier walks each block once per column of a sparse × dense
segment-sum, so it should win on both formats; the acceptance gate asserts
it does.

Everything here **requires a real numba JIT** and is skipped otherwise: the
registry's interpreted fallback (``REPRO_KERNEL_FORCE_PYTHON``) proves the
numerics in the test suite but is orders of magnitude slower, so timing it
would gate on noise.  The compilation itself is hoisted out of the measured
region with :func:`repro.kernels.warmup_kernels` plus one untimed sweep —
exactly what a latency-sensitive caller is told to do.

On CI the compare step (scripts/compare_bench.py) treats kernels present on
only one side as informational, so runs without numba never trip the gate.
"""

from __future__ import annotations

import pytest

from repro.core import SymbolicTTMc
from repro.data import power_law_sparse_tensor
from repro.engine import WorkspacePool
from repro.kernels import numba_available, warmup_kernels
from repro.sparse import CSFTensorSet
from sweep_utils import csf_sweep, median_time, per_mode_sweep

RANK = 8

requires_numba = pytest.mark.skipif(
    not numba_available(),
    reason="the compiled tier needs a real numba JIT; the interpreted "
    "fallback is not a performance configuration",
)


@pytest.fixture(scope="module")
def tensor():
    return power_law_sparse_tensor(
        (120, 100, 90, 80), 120_000, exponents=0.7, seed=0
    )


@pytest.fixture(scope="module")
def factors(tensor):
    from repro.util.linalg import random_orthonormal

    return [
        random_orthonormal(s, RANK, seed=i) for i, s in enumerate(tensor.shape)
    ]


@pytest.fixture(scope="module")
def symbolic(tensor):
    return SymbolicTTMc(tensor)


@pytest.fixture(scope="module")
def csf_trees(tensor):
    return CSFTensorSet.per_mode(tensor)


@pytest.fixture(scope="module")
def warm_table():
    """JIT-compile every dispatcher once, off the measured path."""
    return warmup_kernels("numba")


@requires_numba
def test_ttmc_sweep_coo_numba(benchmark, tensor, factors, symbolic, warm_table):
    pool = WorkspacePool()
    benchmark.pedantic(
        per_mode_sweep,
        args=(tensor, factors, symbolic, pool, RANK, "numba"),
        rounds=3,
        warmup_rounds=1,
    )


@requires_numba
def test_ttmc_sweep_csf_numba(benchmark, tensor, factors, csf_trees, warm_table):
    pool = WorkspacePool()
    benchmark.pedantic(
        csf_sweep,
        args=(tensor, factors, csf_trees, pool, RANK, "numba"),
        rounds=3,
        warmup_rounds=1,
    )


@requires_numba
def test_numba_beats_numpy_coo(tensor, factors, symbolic, warm_table):
    """Acceptance gate: the fused COO row kernel must beat the vectorized
    gather + sparse × dense segment-sum pipeline on the 4-mode power-law
    sweep."""
    pool_a, pool_b = WorkspacePool(), WorkspacePool()
    per_mode_sweep(tensor, factors, symbolic, pool_a, RANK)          # warm-up
    per_mode_sweep(tensor, factors, symbolic, pool_b, RANK, "numba")

    numpy_t = median_time(per_mode_sweep, tensor, factors, symbolic, pool_a, RANK)
    numba_t = median_time(
        per_mode_sweep, tensor, factors, symbolic, pool_b, RANK, "numba"
    )
    assert numba_t < numpy_t, (
        f"compiled COO sweep ({numba_t * 1e3:.1f} ms) should beat the numpy "
        f"tier ({numpy_t * 1e3:.1f} ms)"
    )


@requires_numba
def test_numba_beats_numpy_csf(tensor, factors, csf_trees, warm_table):
    """Acceptance gate: the fused fiber-extent walk must beat the
    per-level sparse × dense segment-sums on the same trees."""
    pool_a, pool_b = WorkspacePool(), WorkspacePool()
    csf_sweep(tensor, factors, csf_trees, pool_a, RANK)              # warm-up
    csf_sweep(tensor, factors, csf_trees, pool_b, RANK, "numba")

    numpy_t = median_time(csf_sweep, tensor, factors, csf_trees, pool_a, RANK)
    numba_t = median_time(
        csf_sweep, tensor, factors, csf_trees, pool_b, RANK, "numba"
    )
    assert numba_t < numpy_t, (
        f"compiled CSF sweep ({numba_t * 1e3:.1f} ms) should beat the numpy "
        f"tier ({numpy_t * 1e3:.1f} ms)"
    )


@requires_numba
def test_warmup_hoists_compilation(benchmark):
    """Warmup cost after the first compile: effectively free (cache hits)."""
    warmup_kernels("numba")
    benchmark.pedantic(warmup_kernels, args=("numba",), rounds=3, warmup_rounds=1)
