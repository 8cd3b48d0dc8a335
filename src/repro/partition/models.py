"""Hypergraph models of the HOOI task decompositions.

Following Section III-B of the paper (and the SC'15 CP-ALS work it adopts the
models from), two hypergraphs are built from a sparse tensor:

* **Fine-grain model** — one vertex per nonzero (the z-task that computes the
  nonzero's Kronecker contribution in every mode) and one net per tensor index
  ``(mode n, row i)``, connecting all nonzeros whose mode-``n`` index is ``i``.
  A net cut between λ parts forces λ−1 partial results / factor-row transfers
  for that row per iteration, so the connectivity-1 cutsize is the
  communication volume (and the redundant TRSVD row count).
* **Coarse-grain model** (per mode ``n``) — one vertex per mode-``n`` index
  (the coarse task ``t_i^n``, weighted by the number of nonzeros of the slice
  ``X(i_n = i)``, i.e. its TTMc work) and one net per index of every *other*
  mode, connecting the mode-``n`` slices that need that factor row.

Net costs default to 1 (a unit of communication per cut index per iteration);
passing the decomposition ranks scales each net by ``R_m`` of its mode, which
weights factor-row traffic more faithfully.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.sparse_tensor import SparseTensor
from repro.partition.hypergraph import Hypergraph
from repro.util.validation import check_axis

__all__ = ["build_fine_hypergraph", "build_coarse_hypergraph", "FineModelIndex"]


class FineModelIndex:
    """Bookkeeping that maps fine-model nets back to (mode, tensor index).

    ``net_mode[e]`` and ``net_index[e]`` identify the tensor row a net stands
    for; ``first_net_of_mode[n]`` gives the net-id offset of mode ``n``'s
    block of nets.
    """

    def __init__(self, net_mode: np.ndarray, net_index: np.ndarray,
                 first_net_of_mode: np.ndarray) -> None:
        self.net_mode = net_mode
        self.net_index = net_index
        self.first_net_of_mode = first_net_of_mode


def build_fine_hypergraph(
    tensor: SparseTensor,
    *,
    ranks: Optional[Sequence[int]] = None,
) -> Tuple[Hypergraph, FineModelIndex]:
    """Build the fine-grain hypergraph of a sparse tensor.

    Vertices are the nonzeros (unit weight — every z-task performs the same
    amount of TTMc work, which is why the paper's fine-grain partitions are
    perfectly TTMc-balanced).  Nets are the non-empty ``(mode, index)`` pairs.
    """
    nnz = tensor.nnz
    pins_parts = []
    ptr_parts = [np.zeros(1, dtype=np.int64)]
    net_modes = []
    net_indices = []
    net_costs = []
    first_net_of_mode = np.zeros(tensor.order, dtype=np.int64)
    net_counter = 0
    pin_offset = 0
    for mode in range(tensor.order):
        first_net_of_mode[mode] = net_counter
        if nnz == 0:
            continue
        idx = tensor.indices[:, mode]
        order = np.argsort(idx, kind="stable").astype(np.int64)
        sorted_idx = idx[order]
        boundary = np.empty(nnz, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary).astype(np.int64)
        rows = sorted_idx[boundary]
        # This mode contributes one net per non-empty row; the pins are the
        # row-grouped nonzero permutation (identical to the symbolic TTMc
        # structure), so the CSR can be emitted directly.
        pins_parts.append(order)
        ends = np.concatenate([starts[1:], [nnz]]).astype(np.int64)
        ptr_parts.append(ends + pin_offset)
        cost = 1 if ranks is None else int(ranks[mode])
        net_modes.append(np.full(rows.shape[0], mode, dtype=np.int64))
        net_indices.append(rows.astype(np.int64))
        net_costs.append(np.full(rows.shape[0], cost, dtype=np.int64))
        net_counter += int(rows.shape[0])
        pin_offset += nnz
    if nnz == 0:
        hg = Hypergraph(0, (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)))
        index = FineModelIndex(
            net_mode=np.empty(0, dtype=np.int64),
            net_index=np.empty(0, dtype=np.int64),
            first_net_of_mode=first_net_of_mode,
        )
        return hg, index
    net_ptr = np.concatenate(ptr_parts)
    pins = np.concatenate(pins_parts)
    hg = Hypergraph(
        nnz,
        (net_ptr, pins),
        vertex_weights=np.ones(nnz, dtype=np.int64),
        net_costs=np.concatenate(net_costs),
    )
    index = FineModelIndex(
        net_mode=np.concatenate(net_modes),
        net_index=np.concatenate(net_indices),
        first_net_of_mode=first_net_of_mode,
    )
    return hg, index


def build_coarse_hypergraph(
    tensor: SparseTensor,
    mode: int,
    *,
    ranks: Optional[Sequence[int]] = None,
) -> Hypergraph:
    """Build the coarse-grain hypergraph for one mode.

    Vertices are the mode-``mode`` indices ``0..I_n-1`` (weight = slice
    nonzero count; empty slices get weight 0 and are effectively free to
    place).  For every other mode ``m`` and index ``j`` with at least two
    distinct mode-``mode`` slices touching it, a net connects those slices.
    """
    mode = check_axis(mode, tensor.order)
    n_rows = tensor.shape[mode]
    weights = tensor.mode_counts(mode).astype(np.int64)
    pins_parts = []
    sizes_parts = []
    costs_parts = []
    row_idx = tensor.indices[:, mode].astype(np.int64)
    for other in range(tensor.order):
        if other == mode:
            continue
        other_idx = tensor.indices[:, other].astype(np.int64)
        # Distinct (other index, row) pairs, sorted by the other index: the
        # pins of the net for other-index ``j`` are the distinct mode rows
        # that co-occur with ``j`` in some nonzero.
        keys = other_idx * np.int64(n_rows) + row_idx
        uniq = np.unique(keys)
        if uniq.size == 0:
            continue
        net_of_pair = uniq // np.int64(n_rows)
        pin_of_pair = uniq % np.int64(n_rows)
        boundary = np.empty(net_of_pair.shape, dtype=bool)
        boundary[0] = True
        np.not_equal(net_of_pair[1:], net_of_pair[:-1], out=boundary[1:])
        group_id = np.cumsum(boundary) - 1
        group_sizes = np.bincount(group_id)
        keep_pair = group_sizes[group_id] >= 2
        kept_sizes = group_sizes[group_sizes >= 2]
        if kept_sizes.size == 0:
            continue
        pins_parts.append(pin_of_pair[keep_pair])
        sizes_parts.append(kept_sizes.astype(np.int64))
        cost = 1 if ranks is None else int(ranks[other])
        costs_parts.append(np.full(kept_sizes.shape[0], cost, dtype=np.int64))
    if not pins_parts:
        return Hypergraph(
            n_rows,
            (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)),
            vertex_weights=weights,
            net_costs=np.empty(0, dtype=np.int64),
        )
    sizes = np.concatenate(sizes_parts)
    net_ptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return Hypergraph(
        n_rows,
        (net_ptr, np.concatenate(pins_parts)),
        vertex_weights=weights,
        net_costs=np.concatenate(costs_parts),
    )
