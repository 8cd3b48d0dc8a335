"""Multilevel K-way hypergraph partitioner (the PaToH substitute).

The paper delegates partitioning to PaToH; this module provides a from-scratch
multilevel partitioner with the same interface contract: given a hypergraph
with vertex weights and net costs, produce a K-way partition that (i) keeps
part weights within a balance tolerance and (ii) has low connectivity-1
cutsize.  Structure:

* **Coarsening** — agglomerative clustering: every vertex nominates its
  "strongest" small net and vertices nominating the same net are merged (with
  a cluster-size cap to protect balance), a vectorized variant of PaToH's
  absorption clustering.  Levels are built until the hypergraph is small or
  the reduction stalls.
* **Initial partitioning** — greedy growth bisection on the coarsest level
  (BFS over nets from a random seed vertex until half the weight is absorbed),
  best of several random seeds.
* **Refinement** — boundary Fisduccia–Mattheyses-style passes: gains are
  computed vectorized for all boundary vertices, candidate moves are applied
  in gain order with an exact re-check against the current pin counts and the
  balance constraint.
* **K-way** — recursive bisection with proportional target weights, so any
  number of parts (not just powers of two) is supported.

The goal is not to match PaToH's cut quality bit-for-bit but to provide the
qualitative behaviour the paper relies on: hypergraph-informed partitions with
dramatically lower communication volume than random or block partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.partition.hypergraph import Hypergraph
from repro.partition.metrics import connectivity_cutsize, part_weights

__all__ = ["PartitionerOptions", "multilevel_bisect", "partition_hypergraph"]


@dataclass(frozen=True)
class PartitionerOptions:
    """Tuning knobs of the multilevel partitioner."""

    epsilon: float = 0.10           # allowed imbalance (max/avg - 1)
    coarsen_until: int = 160        # stop coarsening below this many vertices
    max_levels: int = 25
    min_reduction: float = 0.92     # stop if a level shrinks less than this factor
    refine_passes: int = 6
    initial_trials: int = 8
    seed: int = 0


# --------------------------------------------------------------------------- #
# Coarsening
# --------------------------------------------------------------------------- #
def _coarsen_once(
    hg: Hypergraph, rng: np.random.Generator, max_cluster_weight: float
) -> Tuple[Hypergraph, np.ndarray]:
    """One level of agglomerative (net-nomination) coarsening.

    Each vertex nominates its smallest incident net (small nets indicate
    strong connections); vertices nominating the same net are clustered
    together, greedily splitting a group when its weight would exceed
    ``max_cluster_weight``.  Isolated vertices stay singletons.
    """
    num_v = hg.num_vertices
    sizes = hg.net_sizes()
    # Nominate, for every vertex, the incident net with the fewest pins
    # (ties broken by net id).  Vectorized over the vertex->net CSR.
    vptr, vnets = hg.vertex_ptr, hg.vertex_nets
    nomination = -np.ones(num_v, dtype=np.int64)
    if vnets.size:
        net_size_of_adj = sizes[vnets]
        # For each vertex pick the position of the minimal net size.
        # Work per vertex segment with np.minimum.reduceat.
        degrees = np.diff(vptr)
        nonzero_deg = np.flatnonzero(degrees > 0)
        if nonzero_deg.size:
            starts = vptr[nonzero_deg]
            seg_min = np.minimum.reduceat(net_size_of_adj, starts)
            # Find, within each segment, the first net matching the minimum.
            # Build a mask and use argmax over segments.
            for_vertex = np.repeat(nonzero_deg, degrees[nonzero_deg])
            is_min = net_size_of_adj == np.repeat(seg_min, degrees[nonzero_deg])
            # position of first True per segment
            pin_positions = np.arange(vnets.shape[0], dtype=np.int64)
            candidate_pos = np.where(is_min, pin_positions, np.iinfo(np.int64).max)
            first_min = np.minimum.reduceat(candidate_pos, starts)
            nomination[nonzero_deg] = vnets[first_min]

    order = rng.permutation(num_v)
    cluster_of = -np.ones(num_v, dtype=np.int64)
    cluster_weight: List[int] = []
    cluster_for_net: dict = {}
    weights = hg.vertex_weights
    next_cluster = 0
    for v in order:
        net = nomination[v]
        wv = int(weights[v])
        if net >= 0 and net in cluster_for_net:
            c = cluster_for_net[net]
            if cluster_weight[c] + wv <= max_cluster_weight:
                cluster_of[v] = c
                cluster_weight[c] += wv
                continue
        cluster_of[v] = next_cluster
        cluster_weight.append(wv)
        if net >= 0:
            cluster_for_net[net] = next_cluster
        next_cluster += 1
    coarse = hg.contract(cluster_of)
    return coarse, cluster_of


# --------------------------------------------------------------------------- #
# Initial bisection
# --------------------------------------------------------------------------- #
def _greedy_growth_bisection(
    hg: Hypergraph,
    target0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grow part 0 from a random seed vertex until it reaches ``target0`` weight."""
    num_v = hg.num_vertices
    parts = np.ones(num_v, dtype=np.int64)
    if num_v == 0:
        return parts
    weights = hg.vertex_weights
    vptr, vnets = hg.vertex_ptr, hg.vertex_nets
    nptr, pins = hg.net_ptr, hg.pins
    in_front = np.zeros(num_v, dtype=bool)
    # A scanned net has every pin in part 0 or in the frontier, and neither
    # flag is ever cleared, so scanning it again would add nothing.
    net_done = np.zeros(hg.num_nets, dtype=bool)
    seed = int(rng.integers(num_v))
    frontier = [seed]
    in_front[seed] = True
    weight0 = 0.0
    while frontier and weight0 < target0:
        v = frontier.pop()
        if parts[v] == 0:
            continue
        parts[v] = 0
        weight0 += weights[v]
        for e in vnets[vptr[v]: vptr[v + 1]]:
            if net_done[e]:
                continue
            net_done[e] = True
            for u in pins[nptr[e]: nptr[e + 1]]:
                if parts[u] == 1 and not in_front[u]:
                    in_front[u] = True
                    frontier.append(u)
        if not frontier and weight0 < target0:
            remaining = np.flatnonzero(parts == 1)
            if remaining.size == 0:
                break
            nxt = int(remaining[rng.integers(remaining.size)])
            frontier.append(nxt)
            in_front[nxt] = True
    return parts


def _bisection_gains(
    hg: Hypergraph, parts: np.ndarray, pins_in_part: np.ndarray
) -> np.ndarray:
    """FM gain of moving each vertex to the other side (vectorized).

    ``pins_in_part`` is ``(num_nets, 2)`` with the pin counts per side.  For a
    vertex in part ``p`` and net ``e``:  +cost if it is the only pin of ``e``
    in ``p`` (the net becomes uncut), −cost if the other side currently has no
    pin (the net becomes cut).
    """
    vptr, vnets = hg.vertex_ptr, hg.vertex_nets
    my_part = parts[np.repeat(np.arange(hg.num_vertices), np.diff(vptr))]
    my_count = pins_in_part[vnets, my_part]
    other_count = pins_in_part[vnets, 1 - my_part]
    costs = hg.net_costs[vnets].astype(np.float64)
    contrib = np.where(my_count == 1, costs, 0.0) - np.where(other_count == 0, costs, 0.0)
    gains = np.zeros(hg.num_vertices, dtype=np.float64)
    np.add.at(gains, np.repeat(np.arange(hg.num_vertices), np.diff(vptr)), contrib)
    return gains


def _refine_bisection(
    hg: Hypergraph,
    parts: np.ndarray,
    targets: Tuple[float, float],
    epsilon: float,
    passes: int,
) -> np.ndarray:
    """Boundary FM-style refinement of a bisection (in place, returns parts)."""
    weights = hg.vertex_weights.astype(np.float64)
    nptr, pins = hg.net_ptr, hg.pins
    net_of_pin = hg.net_of_pins()
    max_weight = (
        targets[0] * (1.0 + epsilon),
        targets[1] * (1.0 + epsilon),
    )
    for _ in range(max(passes, 1)):
        pins_in_part = np.zeros((hg.num_nets, 2), dtype=np.int64)
        np.add.at(pins_in_part, (net_of_pin, parts[pins]), 1)
        side_weight = np.array(
            [weights[parts == 0].sum(), weights[parts == 1].sum()]
        )
        gains = _bisection_gains(hg, parts, pins_in_part)
        candidates = np.flatnonzero(gains > 0)
        if candidates.size == 0:
            # Allow zero-gain rebalancing moves if a side is overweight.
            if side_weight[0] > max_weight[0] or side_weight[1] > max_weight[1]:
                candidates = np.flatnonzero(gains >= 0)
            if candidates.size == 0:
                break
        order = candidates[np.argsort(-gains[candidates], kind="stable")]
        moved_any = False
        vptr, vnets = hg.vertex_ptr, hg.vertex_nets
        costs = hg.net_costs
        for v in order:
            src = int(parts[v])
            dst = 1 - src
            if side_weight[dst] + weights[v] > max_weight[dst]:
                continue
            # Exact gain re-check against current counts.
            nets_v = vnets[vptr[v]: vptr[v + 1]]
            my = pins_in_part[nets_v, src]
            other = pins_in_part[nets_v, dst]
            gain = float(
                np.sum(np.where(my == 1, costs[nets_v], 0))
                - np.sum(np.where(other == 0, costs[nets_v], 0))
            )
            overweight = side_weight[src] > max_weight[src]
            if gain < 0 or (gain == 0 and not overweight):
                continue
            parts[v] = dst
            side_weight[src] -= weights[v]
            side_weight[dst] += weights[v]
            pins_in_part[nets_v, src] -= 1
            pins_in_part[nets_v, dst] += 1
            moved_any = True
        if not moved_any:
            break
    return parts


# --------------------------------------------------------------------------- #
# Multilevel bisection and recursive K-way
# --------------------------------------------------------------------------- #
def multilevel_bisect(
    hg: Hypergraph,
    *,
    target_fraction: float = 0.5,
    options: Optional[PartitionerOptions] = None,
) -> np.ndarray:
    """Bisect ``hg`` into parts {0, 1} with part 0 receiving ``target_fraction``
    of the total vertex weight (within the balance tolerance)."""
    options = options or PartitionerOptions()
    rng = np.random.default_rng(options.seed)
    total_weight = float(hg.total_vertex_weight)
    targets = (total_weight * target_fraction, total_weight * (1.0 - target_fraction))

    # ---- coarsening phase
    levels: List[Tuple[Hypergraph, np.ndarray]] = []   # (fine hg, cluster_of)
    current = hg
    max_cluster_weight = max(total_weight / max(options.coarsen_until, 1), 1.0) * 2.0
    for _ in range(options.max_levels):
        if current.num_vertices <= options.coarsen_until or current.num_nets == 0:
            break
        coarse, cluster_of = _coarsen_once(current, rng, max_cluster_weight)
        if coarse.num_vertices >= current.num_vertices * options.min_reduction:
            break
        levels.append((current, cluster_of))
        current = coarse

    # ---- initial partitioning on the coarsest hypergraph
    best_parts: Optional[np.ndarray] = None
    best_cut = np.inf
    for _ in range(max(options.initial_trials, 1)):
        parts = _greedy_growth_bisection(current, targets[0], rng)
        parts = _refine_bisection(
            current, parts, targets, options.epsilon, options.refine_passes
        )
        cut = connectivity_cutsize(current, parts, 2)
        weights = part_weights(current, parts, 2).astype(np.float64)
        balanced = (
            weights[0] <= targets[0] * (1 + options.epsilon)
            and weights[1] <= targets[1] * (1 + options.epsilon)
        )
        score = cut + (0 if balanced else total_weight)
        if score < best_cut:
            best_cut = score
            best_parts = parts.copy()
    parts = best_parts if best_parts is not None else np.zeros(
        current.num_vertices, dtype=np.int64
    )

    # ---- uncoarsening + refinement
    for fine, cluster_of in reversed(levels):
        parts = parts[cluster_of]
        parts = _refine_bisection(
            fine, parts, targets, options.epsilon, options.refine_passes
        )
    return parts


def partition_hypergraph(
    hg: Hypergraph,
    num_parts: int,
    *,
    options: Optional[PartitionerOptions] = None,
) -> np.ndarray:
    """K-way partition by recursive multilevel bisection.

    Returns an array of part ids in ``0..num_parts-1`` for every vertex.
    """
    options = options or PartitionerOptions()
    num_parts = int(num_parts)
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    parts = np.zeros(hg.num_vertices, dtype=np.int64)
    if num_parts == 1 or hg.num_vertices == 0:
        return parts

    # Recursive bisection multiplies the imbalance of every level, so each
    # bisection gets the per-level tolerance (1 + eps)^(1/levels) - 1 to keep
    # the final K-way imbalance within the requested epsilon.
    levels_deep = max(int(np.ceil(np.log2(num_parts))), 1)
    level_epsilon = (1.0 + options.epsilon) ** (1.0 / levels_deep) - 1.0

    def recurse(sub: Hypergraph, vertex_ids: np.ndarray, k: int, first_part: int,
                depth: int) -> None:
        if k == 1:
            parts[vertex_ids] = first_part
            return
        k_left = k // 2
        k_right = k - k_left
        frac = k_left / k
        sub_options = PartitionerOptions(
            epsilon=level_epsilon,
            coarsen_until=options.coarsen_until,
            max_levels=options.max_levels,
            min_reduction=options.min_reduction,
            refine_passes=options.refine_passes,
            initial_trials=options.initial_trials,
            seed=options.seed + depth * 1009 + first_part,
        )
        bisection = multilevel_bisect(sub, target_fraction=frac, options=sub_options)
        left_ids = vertex_ids[bisection == 0]
        right_ids = vertex_ids[bisection == 1]
        if left_ids.size == 0 or right_ids.size == 0:
            # Degenerate split (e.g. a single huge vertex): fall back to a
            # weight-balanced round-robin so recursion always terminates.
            order = np.argsort(-sub.vertex_weights, kind="stable")
            assign = np.zeros(sub.num_vertices, dtype=np.int64)
            running = np.zeros(2)
            split_targets = np.array([frac, 1 - frac]) * sub.vertex_weights.sum()
            for v in order:
                side = int(np.argmin(running / np.maximum(split_targets, 1e-9)))
                assign[v] = side
                running[side] += sub.vertex_weights[v]
            left_ids = vertex_ids[assign == 0]
            right_ids = vertex_ids[assign == 1]
            bisection = assign
        left_sub, _ = sub.restrict_to_vertices(np.flatnonzero(bisection == 0))
        right_sub, _ = sub.restrict_to_vertices(np.flatnonzero(bisection == 1))
        recurse(left_sub, left_ids, k_left, first_part, depth + 1)
        recurse(right_sub, right_ids, k_right, first_part + k_left, depth + 1)

    recurse(hg, np.arange(hg.num_vertices, dtype=np.int64), num_parts, 0, 0)
    return parts
