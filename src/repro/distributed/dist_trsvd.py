"""Distributed matrix-free TRSVD (Section III-B of the paper).

After the local TTMc step, the matricized tensor ``Y_(n)`` exists either

* **row-distributed** (coarse grain): every rank holds the complete rows it
  owns, or
* **sum-distributed** (fine grain): ``Y_(n) = Σ_k Y^k_(n)`` where every rank
  holds *partial* rows for the mode-``n`` indices its nonzeros touch.

The paper's key point is that the TRSVD only needs MxV and MTxV products, so
the partial results are never assembled.  :class:`DistributedTTMcMatrix`
implements those two products with exactly the communication the paper
prescribes:

* MxV ``y ← Y x``: local multiply, then point-to-point *fold* of the partial
  ``y`` entries to the row owners (one scalar per cut row per iteration);
* MTxV ``xᵀ ← yᵀ Y``: point-to-point *scatter* of the summed ``y`` entries
  back to the contributors, local multiply, then an all-to-all reduction
  (allreduce) of the short ``x`` vector.

The operator is a :class:`~repro.core.trsvd.RowSplitOperator` over this
rank's *owned* row segment, so :func:`repro.core.trsvd.lanczos_svd` runs on
it unchanged: the *left* vectors are distributed by row ownership, the
*right* vectors (length ``Π_{t≠n} R_t``) are replicated, and the operator's
row-space reductions (global row count, ``basisᵀ·v``, left norm) are
allreduces of short vectors.  Left deflation vectors come from a rank-local
stream, so a rank-dependent number of draws cannot desynchronize the shared
stream that every rank draws the right vectors from; the solver state
therefore stays bit-identical across ranks without extra synchronization.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.sparse_tensor import as_supported_float
from repro.core.trsvd import RowSplitOperator
from repro.distributed.plan import ModePlan
from repro.simmpi.communicator import Communicator

__all__ = ["DistributedTTMcMatrix"]

TAG_FOLD = 101
TAG_SCATTER = 102


class DistributedTTMcMatrix(RowSplitOperator):
    """Sum/row-distributed ``Y_(n)`` exposing communication-aware MxV / MTxV.

    ``shape`` is ``(owned non-empty rows, ncols)``: ``matvec`` returns and
    ``rmatvec`` takes this rank's owned segment of the left vector.

    Parameters
    ----------
    comm:
        The rank's communicator.
    mode_plan:
        The rank's :class:`~repro.distributed.plan.ModePlan` for this mode.
    block_rows:
        Global row indices of the local block (fine grain: the local ``J_n``;
        coarse grain: the owned non-empty rows).
    local_block:
        ``(len(block_rows), ncols)`` local (partial) rows of ``Y_(n)``.
    charge_time:
        When true (default), local multiplies advance the rank's simulated
        clock through the machine model.
    model_threads:
        Thread count the machine model charges the local multiplies at
        (the hybrid rank's nested team size); ``None`` uses the machine's
        default ``threads_per_rank``.
    """

    def __init__(
        self,
        comm: Communicator,
        mode_plan: ModePlan,
        block_rows: np.ndarray,
        local_block: np.ndarray,
        *,
        charge_time: bool = True,
        model_threads: Optional[int] = None,
    ) -> None:
        self.comm = comm
        self.plan = mode_plan
        self.block_rows = np.asarray(block_rows, dtype=np.int64)
        # A float32 block (the engine's dtype policy) is multiplied as
        # float32; the solver's own float64 vectors promote products exactly.
        self.local_block = np.ascontiguousarray(as_supported_float(local_block))
        if self.local_block.shape[0] != self.block_rows.shape[0]:
            raise ValueError("local_block must have one row per block row")
        self.ncols = int(self.local_block.shape[1])
        self.owned_rows = mode_plan.owned_nonempty_rows
        self.shape = (int(self.owned_rows.shape[0]), self.ncols)
        self.charge_time = charge_time
        self.model_threads = model_threads

        # Position of each block row within the owned segment (or -1).
        owned_pos = {int(r): i for i, r in enumerate(self.owned_rows)}
        self._block_to_owned = np.array(
            [owned_pos.get(int(r), -1) for r in self.block_rows], dtype=np.int64
        )
        self._mine_mask = self._block_to_owned >= 0

        # Fold/scatter peers: rows grouped by the peer on the other side.
        # ``receive[peer]`` = rows I touch but ``peer`` owns (I send partials
        # there and later receive the summed values from there);
        # ``send[peer]``    = rows I own that ``peer`` touches.
        block_pos = {int(r): i for i, r in enumerate(self.block_rows)}
        self._to_owner: List[Tuple[int, np.ndarray]] = []
        for peer, rows in sorted(mode_plan.fold.receive.items()):
            positions = np.array([block_pos[int(r)] for r in rows], dtype=np.int64)
            self._to_owner.append((peer, positions))
        self._from_toucher: List[Tuple[int, np.ndarray]] = []
        for peer, rows in sorted(mode_plan.fold.send.items()):
            positions = np.array([owned_pos[int(r)] for r in rows], dtype=np.int64)
            self._from_toucher.append((peer, positions))

    # ------------------------------------------------------------------ #
    @property
    def local_rows(self) -> int:
        return int(self.block_rows.shape[0])

    @property
    def owned_count(self) -> int:
        return int(self.owned_rows.shape[0])

    def _charge(self, flops: float, streamed: float) -> None:
        if not self.charge_time:
            return
        from repro.parallel.model import PhaseWork  # local import to avoid cycles

        self.comm.advance_compute(
            self.comm.machine.compute_time(
                PhaseWork(flops=flops, streamed_bytes=streamed),
                threads=self.model_threads,
            ),
            category="trsvd",
        )

    # ------------------------------------------------------------------ #
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``y ← Y x`` returning this rank's *owned* segment of ``y``."""
        v = np.asarray(v, dtype=np.float64)
        partial = self.local_block @ v
        self._charge(2.0 * self.local_rows * self.ncols,
                     8.0 * self.local_rows * self.ncols)
        y = np.zeros(self.owned_count, dtype=np.float64)
        mine = self._mine_mask
        y[self._block_to_owned[mine]] += partial[mine]
        # Fold partial entries to their owners (fine grain only; the lists are
        # empty in the coarse-grain case).
        for owner, positions in self._to_owner:
            self.comm.send(partial[positions], dest=owner, tag=TAG_FOLD)
        for toucher, positions in self._from_toucher:
            data = self.comm.recv(source=toucher, tag=TAG_FOLD)
            y[positions] += data
        return y

    def rmatvec(self, y_owned: np.ndarray) -> np.ndarray:
        """``xᵀ ← yᵀ Y`` returning the replicated short vector ``x``."""
        y_owned = np.asarray(y_owned, dtype=np.float64)
        if y_owned.shape[0] != self.owned_count:
            raise ValueError("rmatvec expects this rank's owned y segment")
        y_block = np.zeros(self.local_rows, dtype=np.float64)
        mine = self._mine_mask
        y_block[mine] = y_owned[self._block_to_owned[mine]]
        # Scatter the summed values back to the contributors.
        for toucher, positions in self._from_toucher:
            self.comm.send(y_owned[positions], dest=toucher, tag=TAG_SCATTER)
        for owner, positions in self._to_owner:
            data = self.comm.recv(source=owner, tag=TAG_SCATTER)
            y_block[positions] = data
        x_local = self.local_block.T @ y_block
        self._charge(2.0 * self.local_rows * self.ncols,
                     8.0 * self.local_rows * self.ncols)
        return self.comm.allreduce(x_local)

    # -- row-space reductions of the Lanczos loop ------------------------ #
    @property
    def rank(self) -> int:
        return self.comm.rank

    def allreduce(self, vector: np.ndarray) -> np.ndarray:
        return self.comm.allreduce(vector)
