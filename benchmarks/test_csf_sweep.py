"""Benchmark: CSF vs per-mode COO vs dimension-tree TTMc sweep.

One HOOI-iteration-worth of TTMc — serve every mode's ``Y_(n)`` — evaluated
on the three tensor-format / strategy configurations the engine offers:

* ``per-mode`` COO (the paper's Algorithm 2: each mode recomputed from the
  flat coordinate list),
* ``dimtree`` (memoized partial chains over COO),
* ``csf`` with one rooted tree per mode (fiber-segment sweeps — factor rows
  gathered once per merged fiber, partial products reduced over fiber
  extents).

The 4-mode power-law tensor merges many nonzeros per index prefix, which is
exactly the structure CSF stores once; the acceptance gate asserts the CSF
sweep beats the per-mode COO baseline.  The module also prints the COO vs
CSF memory footprint (``repro.sparse.memory_report``) so the runtime numbers
carry their storage cost: per-mode rooted trees pay up to ``order``× the
index memory of one tree.
"""

from __future__ import annotations

import pytest

from repro.core import SymbolicTTMc
from repro.data import power_law_sparse_tensor
from repro.engine import DimensionTree, WorkspacePool
from repro.sparse import CSFTensorSet, memory_report
from sweep_utils import csf_sweep, dimtree_sweep, median_time, per_mode_sweep

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
def csf_trees(tensor):
    return CSFTensorSet.per_mode(tensor)


def test_ttmc_sweep_coo_per_mode(benchmark, tensor, factors, symbolic):
    pool = WorkspacePool()
    benchmark.pedantic(
        per_mode_sweep,
        args=(tensor, factors, symbolic, pool, RANK),
        rounds=3,
        warmup_rounds=1,
    )


def test_ttmc_sweep_csf(benchmark, tensor, factors, csf_trees):
    pool = WorkspacePool()
    benchmark.pedantic(
        csf_sweep,
        args=(tensor, factors, csf_trees, pool, RANK),
        rounds=3,
        warmup_rounds=1,
    )


def test_csf_construction(benchmark, tensor):
    """Compression cost: amortized over every sweep of a HOOI run."""
    benchmark.pedantic(
        CSFTensorSet.per_mode, args=(tensor,), rounds=3, warmup_rounds=1
    )


def test_csf_memory_footprint(tensor, csf_trees, capsys):
    """Print the COO-vs-CSF footprint next to the runtime numbers."""
    per_mode = memory_report(tensor, csf_trees)
    with capsys.disabled():
        print(
            f"\n[csf-memory] nnz={per_mode['nnz']} "
            f"coo={per_mode['coo_bytes'] / 1e6:.2f} MB | "
            f"csf per-mode trees={per_mode['csf_bytes'] / 1e6:.2f} MB "
            f"(ratio {per_mode['ratio']:.2f})"
        )
    assert per_mode["ratio"] < tensor.order  # n rooted trees beat n COO copies


def test_csf_beats_coo_per_mode(tensor, factors, symbolic, csf_trees):
    """Acceptance gate: the fiber-vectorized sweep must win on 4 modes."""
    pool_a, pool_b = WorkspacePool(), WorkspacePool()
    per_mode_sweep(tensor, factors, symbolic, pool_a, RANK)   # warm-up
    csf_sweep(tensor, factors, csf_trees, pool_b, RANK)

    per_mode = median_time(per_mode_sweep, tensor, factors, symbolic, pool_a, RANK)
    csf = median_time(csf_sweep, tensor, factors, csf_trees, pool_b, RANK)
    assert csf < per_mode, (
        f"CSF sweep ({csf * 1e3:.1f} ms) should beat per-mode COO "
        f"({per_mode * 1e3:.1f} ms)"
    )


def test_csf_competitive_with_dimtree(tensor, factors, csf_trees):
    """Context (not a gate): CSF lands in the dimension tree's ballpark.

    Both replace the per-mode recomputation with shared partial products —
    the dimension tree by memoizing across modes, CSF by merging fibers
    within each sweep.  Report the ratio; only sanity-bound it loosely so
    noisy CI machines never flake.
    """
    pool_a, pool_b = WorkspacePool(), WorkspacePool()
    tree = DimensionTree(tensor)
    dimtree_sweep(tensor, factors, tree, pool_a, RANK)        # warm-up
    csf_sweep(tensor, factors, csf_trees, pool_b, RANK)

    dimtree = median_time(dimtree_sweep, tensor, factors, tree, pool_a, RANK)
    csf = median_time(csf_sweep, tensor, factors, csf_trees, pool_b, RANK)
    assert csf < 5.0 * dimtree, (
        f"CSF sweep ({csf * 1e3:.1f} ms) is far off the dimtree sweep "
        f"({dimtree * 1e3:.1f} ms)"
    )
