"""Partition quality metrics.

The two quantities the paper cares about are (i) the connectivity-1 cutsize of
the hypergraph partition, which equals the total communication volume of one
HOOI iteration (and the amount of redundant TRSVD work in the fine-grain
case), and (ii) the load balance of the per-part vertex weights (the TTMc
work).  Both are computed here with vectorized NumPy, plus the usual
maximum/average summaries the paper's Table III reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.partition.hypergraph import Hypergraph

__all__ = [
    "PartitionQuality",
    "part_weights",
    "load_imbalance",
    "connectivity_cutsize",
    "cut_nets",
    "evaluate_partition",
    "max_avg",
]


@dataclass(frozen=True)
class PartitionQuality:
    """Summary of a K-way partition of a hypergraph."""

    num_parts: int
    cutsize: int                # connectivity-1 cutsize (total comm. volume)
    num_cut_nets: int
    part_weights: np.ndarray
    imbalance: float            # max weight / average weight - 1


def part_weights(hg: Hypergraph, parts: np.ndarray, num_parts: int) -> np.ndarray:
    """Total vertex weight assigned to each part."""
    parts = np.asarray(parts, dtype=np.int64)
    return np.bincount(parts, weights=hg.vertex_weights, minlength=num_parts).astype(
        np.int64
    )


def load_imbalance(weights: np.ndarray) -> float:
    """``max / mean - 1`` of the per-part weights (0 means perfectly balanced)."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0 or weights.mean() == 0:
        return 0.0
    return float(weights.max() / weights.mean() - 1.0)


def _net_part_connectivity(hg: Hypergraph, parts: np.ndarray, num_parts: int) -> np.ndarray:
    """Number of distinct parts each net touches (its connectivity λ)."""
    parts = np.asarray(parts, dtype=np.int64)
    net_of_pin = hg.net_of_pins()
    pin_parts = parts[hg.pins]
    # Count distinct (net, part) pairs per net.
    keys = net_of_pin * np.int64(num_parts) + pin_parts
    uniq = np.unique(keys)
    nets_of_uniq = uniq // np.int64(num_parts)
    return np.bincount(nets_of_uniq, minlength=hg.num_nets)


def connectivity_cutsize(hg: Hypergraph, parts: np.ndarray, num_parts: int) -> int:
    """Connectivity-1 cutsize ``Σ_e cost(e) * (λ(e) - 1)``.

    This is the objective PaToH minimizes and, per the paper's model, the
    total send volume of one HOOI iteration for the corresponding task
    distribution.
    """
    lam = _net_part_connectivity(hg, parts, num_parts)
    lam = np.maximum(lam, 1)
    return int(np.sum(hg.net_costs * (lam - 1)))


def cut_nets(hg: Hypergraph, parts: np.ndarray, num_parts: int) -> int:
    """Number of nets spanning more than one part."""
    lam = _net_part_connectivity(hg, parts, num_parts)
    return int(np.sum(lam > 1))


def evaluate_partition(
    hg: Hypergraph, parts: np.ndarray, num_parts: int
) -> PartitionQuality:
    """Compute the full quality summary for a partition vector."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (hg.num_vertices,):
        raise ValueError("parts must assign every vertex")
    if parts.size and (parts.min() < 0 or parts.max() >= num_parts):
        raise ValueError("part ids out of range")
    weights = part_weights(hg, parts, num_parts)
    return PartitionQuality(
        num_parts=num_parts,
        cutsize=connectivity_cutsize(hg, parts, num_parts),
        num_cut_nets=cut_nets(hg, parts, num_parts),
        part_weights=weights,
        imbalance=load_imbalance(weights),
    )


def max_avg(values: np.ndarray) -> Tuple[float, float]:
    """``(max, average)`` pair used throughout the Table III reproduction."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0, 0.0
    return float(values.max()), float(values.mean())
