"""Shared scaffolding for the TTMc sweep benchmarks.

The dimtree and CSF sweep benchmarks compare the same unit of work — one
HOOI-iteration-worth of TTMc (serve every mode's ``Y_(n)``) — across TTMc
strategies and tensor formats.  The sweep bodies and the acceptance-gate
timing helper live here so the gates cannot drift apart methodologically.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import ttmc_matricized
from repro.core.kron import kron_row_length
from repro.sparse import csf_ttmc_matricized


def median_time(fn, *args, rounds: int = 3) -> float:
    """Median wall-clock seconds of ``fn(*args)`` over ``rounds`` calls."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def interleaved_median_times(candidates, rounds: int = 5):
    """Median seconds of several ``(fn, args)`` candidates, rounds interleaved.

    Running candidate A's rounds back-to-back and *then* candidate B's lets
    machine drift (thermal throttling, a background process spinning up)
    masquerade as a performance difference.  Interleaving — one round of
    each per pass — makes both sample the same noise, which is what a gate
    comparing two close configurations needs.  Returns one median per
    candidate, in order.
    """
    times = [[] for _ in candidates]
    for _ in range(rounds):
        for slot, (fn, args) in enumerate(candidates):
            start = time.perf_counter()
            fn(*args)
            times[slot].append(time.perf_counter() - start)
    return [float(np.median(t)) for t in times]


def sweep_width(tensor, rank: int) -> int:
    return kron_row_length([rank] * (tensor.order - 1))


def per_mode_sweep(
    tensor, factors, symbolic, pool, rank: int, kernel: str = "numpy"
) -> None:
    """Per-mode COO TTMc of every mode (the paper's Algorithm 2 baseline)."""
    width = sweep_width(tensor, rank)
    for mode in range(tensor.order):
        out = pool.take((tensor.shape[mode], width), tensor.dtype,
                        tag=f"out-{mode}")
        ttmc_matricized(
            tensor, factors, mode,
            symbolic=symbolic[mode], out=out, kernel=kernel,
        )


def dimtree_sweep(tensor, factors, tree, pool, rank: int) -> None:
    """Dimension-tree sweep with the engine's per-mode invalidation."""
    width = sweep_width(tensor, rank)
    for mode in range(tensor.order):
        out = pool.take((tensor.shape[mode], width), tensor.dtype,
                        tag=f"out-{mode}")
        tree.leaf_matricized(mode, factors, out=out, workspace=pool)
        tree.invalidate_factor(mode)


def csf_sweep(
    tensor, factors, trees, pool, rank: int, kernel: str = "numpy"
) -> None:
    """Fiber-vectorized sweep over a :class:`~repro.sparse.CSFTensorSet`."""
    width = sweep_width(tensor, rank)
    for mode in range(tensor.order):
        out = pool.take((tensor.shape[mode], width), tensor.dtype,
                        tag=f"out-{mode}")
        csf_ttmc_matricized(
            trees.tree_for(mode), factors, mode, out=out, workspace=pool,
            kernel=kernel,
        )
