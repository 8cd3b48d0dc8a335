"""Micro-benchmarks of the individual kernels (ablation-style).

These are not tied to a specific paper table; they time the building blocks
whose design DESIGN.md calls out — the symbolic preprocessing, the numeric
TTMc with and without reusing the symbolic data, the Lanczos TRSVD and the
hypergraph partitioner — so regressions in any of them are visible.
"""

from __future__ import annotations

import pytest

from repro.core import (
    SymbolicTTMc,
    lanczos_svd,
    symbolic_ttmc,
    ttmc_matricized,
)
from repro.baselines import cp_als
from repro.data import power_law_sparse_tensor
from repro.engine import COORowsPlan, ThreadDispatcher
from repro.parallel import ParallelConfig
from repro.partition import (
    PartitionerOptions,
    build_fine_hypergraph,
    partition_hypergraph,
)
from repro.util.linalg import random_orthonormal


@pytest.fixture(scope="module")
def tensor():
    return power_law_sparse_tensor((2000, 1500, 2500), 60_000, exponents=0.8, seed=0)


@pytest.fixture(scope="module")
def factors(tensor):
    return [random_orthonormal(s, 10, seed=i) for i, s in enumerate(tensor.shape)]


@pytest.fixture(scope="module")
def symbolic(tensor):
    return SymbolicTTMc(tensor)


def test_symbolic_ttmc_construction(benchmark, tensor):
    """Cost of the one-off symbolic TTMc preprocessing (one mode)."""
    sym = benchmark(symbolic_ttmc, tensor, 0)
    assert sym.nnz == tensor.nnz


def test_numeric_ttmc_with_symbolic_reuse(benchmark, tensor, factors, symbolic):
    """Numeric TTMc when the symbolic structure is reused (the hot path)."""
    out = benchmark(ttmc_matricized, tensor, factors, 0, symbolic=symbolic[0])
    assert out.shape == (tensor.shape[0], 100)


def test_numeric_ttmc_without_symbolic(benchmark, tensor, factors):
    """Numeric TTMc re-doing the symbolic work every call (ablation)."""
    out = benchmark(ttmc_matricized, tensor, factors, 0)
    assert out.shape == (tensor.shape[0], 100)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_parallel_ttmc_threads(benchmark, tensor, factors, symbolic, threads):
    """Thread-parallel numeric TTMc (Algorithm 3 inner loop)."""
    dispatcher = ThreadDispatcher(ParallelConfig(num_threads=threads, schedule="dynamic"))
    plan = COORowsPlan(tensor, {1: symbolic[1]})
    out = benchmark(dispatcher.ttmc, plan, 1, factors)
    assert out.shape[0] == tensor.shape[1]


def test_trsvd_lanczos(benchmark, tensor, factors, symbolic):
    """Matrix-free Lanczos TRSVD of a matricized TTMc result."""
    y = ttmc_matricized(tensor, factors, 0, symbolic=symbolic[0])
    result = benchmark(lanczos_svd, y, 10, seed=0)
    assert result.left.shape == (tensor.shape[0], 10)


def test_fine_hypergraph_build(benchmark, tensor):
    """Constructing the fine-grain hypergraph model."""
    hg, _ = benchmark(build_fine_hypergraph, tensor)
    assert hg.num_vertices == tensor.nnz


def test_multilevel_partitioner(benchmark, tensor):
    """Multilevel K-way partitioning of the fine-grain model (PaToH stand-in)."""
    hg, _ = build_fine_hypergraph(tensor)
    options = PartitionerOptions(seed=0)
    parts = benchmark.pedantic(
        partition_hypergraph, args=(hg, 8), kwargs=dict(options=options),
        rounds=1, iterations=1,
    )
    assert parts.shape == (tensor.nnz,)


def test_cp_als_baseline(benchmark, tensor):
    """CP-ALS baseline on the same workload (context for the Tucker numbers)."""
    result = benchmark.pedantic(
        cp_als, args=(tensor, 10), kwargs=dict(max_iterations=3, seed=0),
        rounds=1, iterations=1,
    )
    assert result.rank == 10
