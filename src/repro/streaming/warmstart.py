"""Warm-started incremental HOOI over a streaming tensor.

Cold HOOI spends most of its sweeps rediscovering the dominant subspaces of
a tensor that, under streaming appends, barely moved.  The warm-start layer
re-enters the engine seeded from the previous run's factor matrices: the
factors conform to the (possibly grown) shape and (possibly clipped) ranks
(:func:`conform_factors`), the options' ``init`` field carries them in —
:func:`repro.core.hosvd.initialize_factors` already accepts explicit
matrices — and the sweep budget scales with how much of the tensor actually
changed (:func:`adaptive_sweep_budget`).  :class:`StreamingSession` strings
the per-batch runs together, tracking the total sweeps spent so the
benchmark gate can compare against cold restarts.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.core.hooi import HOOIOptions, HOOIResult, hooi
from repro.core.sparse_tensor import SparseTensor
from repro.streaming.tensor import StreamingTensor
from repro.util.linalg import random_orthonormal
from repro.util.validation import check_rank_vector

__all__ = [
    "adaptive_sweep_budget",
    "conform_factors",
    "streaming_hooi",
    "StreamingSession",
]


def conform_factors(
    factors: Sequence[np.ndarray],
    shape: Sequence[int],
    ranks: Union[int, Sequence[int]],
) -> List[np.ndarray]:
    """Fit previous factor matrices to a (grown) shape and rank vector.

    A factor already matching ``(shape[n], ranks[n])`` passes through as a
    copy.  When a mode grew (new rows) or the rank changed, the target is
    seeded with a deterministic orthonormal matrix and the overlapping
    ``[:rows, :cols]`` block of the previous factor is copied in — new rows
    start from fresh directions, retained rows keep their learned subspace.
    Truncation keeps the leading columns (the dominant directions, since
    HOOI orders singular vectors by singular value).
    """
    shape = tuple(int(s) for s in shape)
    ranks = check_rank_vector(ranks, shape)
    if len(factors) != len(shape):
        raise ValueError(
            f"{len(factors)} factors for an order-{len(shape)} tensor"
        )
    out: List[np.ndarray] = []
    for n, factor in enumerate(factors):
        factor = np.asarray(factor, dtype=np.float64)
        if factor.ndim != 2:
            raise ValueError(f"factor {n} is not a matrix")
        target = (shape[n], ranks[n])
        if factor.shape == target:
            out.append(factor.copy())
            continue
        if factor.shape[0] > shape[n]:
            raise ValueError(
                f"factor {n} has {factor.shape[0]} rows but mode {n} has "
                f"size {shape[n]} — streaming shapes only grow"
            )
        seeded = random_orthonormal(shape[n], ranks[n], seed=n)
        rows = min(factor.shape[0], shape[n])
        cols = min(factor.shape[1], ranks[n])
        seeded[:rows, :cols] = factor[:rows, :cols]
        out.append(seeded)
    return out


def adaptive_sweep_budget(
    delta_nnz: int,
    total_nnz: int,
    *,
    base_sweeps: int,
    min_sweeps: int = 1,
) -> int:
    """Sweeps to grant an incremental run that changed ``delta_nnz`` entries.

    Scales the cold budget by the square root of the changed fraction —
    perturbation theory puts the subspace rotation at the order of the
    relative perturbation, and each HOOI sweep contracts the error
    multiplicatively, so the sweeps needed grow sublinearly in the drift.
    Clamped to ``[min_sweeps, base_sweeps]``; a degenerate total (empty
    tensor) gets the full budget.
    """
    base_sweeps = int(base_sweeps)
    min_sweeps = max(1, int(min_sweeps))
    if total_nnz <= 0:
        return max(base_sweeps, min_sweeps)
    fraction = min(1.0, max(0.0, float(delta_nnz) / float(total_nnz)))
    budget = int(math.ceil(base_sweeps * math.sqrt(fraction)))
    return max(min_sweeps, min(base_sweeps, budget))


def streaming_hooi(
    source,
    ranks: Union[int, Sequence[int]],
    options=None,
    *,
    resume_factors: Optional[Sequence[np.ndarray]] = None,
    delta_fraction: Optional[float] = None,
    min_sweeps: int = 1,
    workspace=None,
    callback: Optional[Callable[[int, float], None]] = None,
    cancel_check: Optional[Callable[[], None]] = None,
    **option_kwargs,
) -> HOOIResult:
    """One warm-started HOOI run over a streaming (or plain COO) tensor.

    ``source`` is a :class:`StreamingTensor` or a :class:`SparseTensor`.
    ``resume_factors`` seed the sweep (conformed via
    :func:`conform_factors`); ``delta_fraction`` — fraction of nonzeros the
    last appends changed — shrinks ``max_iterations`` through
    :func:`adaptive_sweep_budget` (only when resuming; a cold run keeps the
    full budget).
    """
    tensor = source.tensor if isinstance(source, StreamingTensor) else source
    if not isinstance(tensor, SparseTensor):
        raise TypeError(
            "source must be a StreamingTensor or SparseTensor, got "
            f"{type(source).__name__}"
        )
    opts = HOOIOptions.from_dict(HOOIOptions.merge_dict(options, option_kwargs))
    if resume_factors is not None:
        conformed = conform_factors(resume_factors, tensor.shape, ranks)
        sweeps = opts.max_iterations
        if delta_fraction is not None:
            sweeps = adaptive_sweep_budget(
                int(round(delta_fraction * tensor.nnz)),
                tensor.nnz,
                base_sweeps=opts.max_iterations,
                min_sweeps=min_sweeps,
            )
        opts = dataclasses.replace(
            opts, init=conformed, max_iterations=sweeps
        )
    return hooi(
        tensor,
        ranks,
        opts,
        callback=callback,
        workspace=workspace,
        cancel_check=cancel_check,
    )


class StreamingSession:
    """Per-batch warm-started decomposition over a :class:`StreamingTensor`.

    Each :meth:`update` optionally appends a batch, then runs HOOI seeded
    from the previous update's factors with a sweep budget scaled to the
    batch size.  ``total_sweeps`` accumulates the sweeps actually spent —
    the quantity the warm-start acceptance benchmark compares against a
    cold restart per batch.
    """

    def __init__(
        self,
        stream: StreamingTensor,
        ranks: Union[int, Sequence[int]],
        *,
        options=None,
        workspace=None,
        adaptive: bool = True,
        min_sweeps: int = 1,
        **option_kwargs,
    ) -> None:
        self.stream = stream
        self.ranks = ranks
        self.options = HOOIOptions.from_dict(
            HOOIOptions.merge_dict(options, option_kwargs)
        )
        self.workspace = workspace
        self.adaptive = bool(adaptive)
        self.min_sweeps = int(min_sweeps)
        self.total_sweeps = 0
        self.updates = 0
        self.last_result: Optional[HOOIResult] = None
        self._factors: Optional[List[np.ndarray]] = None

    @property
    def factors(self) -> Optional[List[np.ndarray]]:
        """Factors of the latest run (``None`` before the first update)."""
        return self._factors

    def update(self, batch=None) -> HOOIResult:
        """Append ``batch`` (if given) and re-decompose from the last factors."""
        delta_fraction: Optional[float] = None
        if batch is not None:
            stats = self.stream.append(batch)
            if self.adaptive and self.stream.nnz:
                delta_fraction = min(
                    1.0, stats.batch_nnz / self.stream.nnz
                )
        result = streaming_hooi(
            self.stream,
            self.ranks,
            self.options,
            resume_factors=self._factors,
            delta_fraction=delta_fraction if self._factors is not None else None,
            min_sweeps=self.min_sweeps,
            workspace=self.workspace,
        )
        self._factors = [f.copy() for f in result.decomposition.factors]
        self.total_sweeps += result.iterations
        self.updates += 1
        self.last_result = result
        return result
