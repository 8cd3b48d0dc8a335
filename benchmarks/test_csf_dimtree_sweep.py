"""Benchmark: dimension trees over CSF subtrees vs the per-mode sweeps.

``tensor_format="csf" × ttmc_strategy="dimtree"`` roots the dimension
tree at the lexicographically sorted nonzeros (the leaf order of a CSF
tree with the identity mode order), so every left-child edge refines an
already-sorted parent and its updates read contiguous payload segments
(``FiberGrouping.contiguous`` — no gather permutation).  Each edge reduces
``payload ⊗ sibling rows`` straight into the child payload as CSR
sparse × dense products, the same segment sums the per-mode kernels use.
Against the per-mode rooted-tree CSF sweep the tree additionally memoizes
partial chains *across* modes, so one HOOI-iteration-worth of TTMc does
O(N log N) multiplies instead of N full chains.

The acceptance gates assert the CSF-sourced dimension tree beats both
per-mode sweeps on the 4-mode power-law tensor (rank 8): the per-mode COO
sweep (the paper's Algorithm 2 baseline) and the per-mode CSF sweep.  On 2
vCPUs, in three runs of 7 interleaved rounds, the CSF-sourced tree measured
73–74 ms against 101–102 ms for per-mode CSF and 308–315 ms for per-mode
COO.  The COO gate's ~4× margin would hide a regression of the tree's edge
updates; the CSF gate's ~1.4× would not.  Numeric parity with the
COO-sourced tree is asserted by the conformance matrix; here a cheap sanity
check keeps the benchmark honest about computing the same thing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SymbolicTTMc
from repro.data import power_law_sparse_tensor
from repro.engine import DimensionTree, WorkspacePool
from repro.sparse import CSFTensorSet
from sweep_utils import (
    csf_sweep,
    dimtree_sweep,
    interleaved_median_times,
    per_mode_sweep,
)

RANK = 8


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
def csf_dimtree(tensor):
    # Built outside the timed region, like every other fixture here: tree
    # construction amortizes over all sweeps of a HOOI run.
    return DimensionTree(tensor, source="csf")


def test_ttmc_sweep_csf_dimtree(benchmark, tensor, factors, csf_dimtree):
    pool = WorkspacePool()
    benchmark.pedantic(
        dimtree_sweep,
        args=(tensor, factors, csf_dimtree, pool, RANK),
        rounds=3,
        warmup_rounds=1,
    )


def test_csf_dimtree_construction(benchmark, tensor):
    """Build cost of a CSF-sourced tree (CSF compression + node groupings)."""
    benchmark.pedantic(
        lambda: DimensionTree(tensor, source="csf"),
        rounds=3,
        warmup_rounds=1,
    )


def test_csf_dimtree_matches_coo_dimtree(tensor, factors, csf_dimtree):
    """Sanity: both tree sources serve identical matricizations."""
    coo_tree = DimensionTree(tensor, source="coo")
    for mode in range(tensor.order):
        np.testing.assert_allclose(
            csf_dimtree.leaf_matricized(mode, factors),
            coo_tree.leaf_matricized(mode, factors),
            atol=1e-12,
        )


def test_csf_dimtree_beats_coo_per_mode(tensor, factors, symbolic, csf_dimtree):
    """Acceptance gate: memoized chains over CSF must beat the per-mode COO sweep.

    The rounds are interleaved: both configurations sample the same machine
    noise and drift cannot masquerade as a win.
    """
    pool_a, pool_b = WorkspacePool(), WorkspacePool()
    per_mode_sweep(tensor, factors, symbolic, pool_a, RANK)        # warm-up
    dimtree_sweep(tensor, factors, csf_dimtree, pool_b, RANK)

    per_mode, tree = interleaved_median_times(
        [
            (per_mode_sweep, (tensor, factors, symbolic, pool_a, RANK)),
            (dimtree_sweep, (tensor, factors, csf_dimtree, pool_b, RANK)),
        ],
        rounds=5,
    )
    assert tree < per_mode, (
        f"CSF-sourced dimtree sweep ({tree * 1e3:.1f} ms) should beat the "
        f"per-mode COO sweep ({per_mode * 1e3:.1f} ms)"
    )


def test_csf_dimtree_beats_csf_per_mode(tensor, factors, csf_dimtree):
    """Acceptance gate: memoized chains over CSF must beat the per-mode CSF sweep.

    Interleaved rounds, like the COO gate.
    """
    trees = CSFTensorSet.per_mode(tensor)
    pool_a, pool_b = WorkspacePool(), WorkspacePool()
    csf_sweep(tensor, factors, trees, pool_a, RANK)                # warm-up
    dimtree_sweep(tensor, factors, csf_dimtree, pool_b, RANK)

    per_mode, tree = interleaved_median_times(
        [
            (csf_sweep, (tensor, factors, trees, pool_a, RANK)),
            (dimtree_sweep, (tensor, factors, csf_dimtree, pool_b, RANK)),
        ],
        rounds=7,
    )
    assert tree < per_mode, (
        f"CSF-sourced dimtree sweep ({tree * 1e3:.1f} ms) should beat the "
        f"per-mode CSF sweep ({per_mode * 1e3:.1f} ms)"
    )
