"""Argument validation helpers.

All validators raise :class:`ValueError` or :class:`TypeError` with messages
that name the offending argument, so user code gets actionable errors instead
of cryptic NumPy broadcasting failures deep inside a kernel.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "check_positive_int",
    "check_axis",
    "check_shape_vector",
    "check_rank_vector",
    "check_rank_feasibility",
    "check_same_order",
    "check_dtype_real",
    "check_finite",
]


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` as ``int`` after checking it is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_axis(axis: int, order: int, name: str = "mode") -> int:
    """Validate a mode index ``axis`` against a tensor order.

    Negative indices are supported with the usual Python semantics.
    """
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(axis).__name__}")
    axis = int(axis)
    if not -order <= axis < order:
        raise ValueError(f"{name} {axis} is out of range for an order-{order} tensor")
    return axis % order


def check_shape_vector(shape: Sequence[int], name: str = "shape") -> Tuple[int, ...]:
    """Validate a tensor shape: a non-empty sequence of positive integers."""
    try:
        out = tuple(int(s) for s in shape)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a sequence of integers") from exc
    if len(out) == 0:
        raise ValueError(f"{name} must have at least one dimension")
    for i, s in enumerate(out):
        if s <= 0:
            raise ValueError(f"{name}[{i}] must be positive, got {s}")
    return out


def check_rank_vector(
    ranks: Sequence[int] | int, shape: Sequence[int], name: str = "ranks"
) -> Tuple[int, ...]:
    """Validate a per-mode rank vector against a tensor shape.

    A scalar rank is broadcast to every mode.  Ranks larger than the mode size
    are clipped to the mode size (requesting more singular vectors than rows
    is never meaningful).
    """
    shape = check_shape_vector(shape, name="shape")
    if isinstance(ranks, (int, np.integer)):
        ranks = [int(ranks)] * len(shape)
    try:
        out = tuple(int(r) for r in ranks)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be an int or a sequence of ints") from exc
    if len(out) != len(shape):
        raise ValueError(
            f"{name} has {len(out)} entries but the tensor has {len(shape)} modes"
        )
    for i, r in enumerate(out):
        if r <= 0:
            raise ValueError(f"{name}[{i}] must be positive, got {r}")
    return tuple(min(r, s) for r, s in zip(out, shape))


def check_rank_feasibility(ranks: Sequence[int]) -> Tuple[int, ...]:
    """Reject a rank vector HOOI cannot keep: every ``R_n ≤ ∏_{t≠n} R_t``.

    ``Y_(n)`` has ``∏_{t≠n} R_t`` columns, so its truncated SVD yields at
    most that many singular vectors.  Checked where ranks enter HOOI (the
    engine, service admission, the distributed launch), not in
    :func:`check_rank_vector`, which the data generators share.
    """
    ranks = tuple(int(r) for r in ranks)
    for n, rank in enumerate(ranks):
        width = int(np.prod([r for t, r in enumerate(ranks) if t != n]))
        if rank > width:
            raise ValueError(
                f"rank {rank} of mode {n} exceeds the product of the other "
                f"modes' ranks ({width}): Y_({n}) has only {width} columns, "
                f"so HOOI cannot keep {rank} singular vectors — lower "
                f"ranks[{n}] or raise the others"
            )
    return ranks


def check_same_order(order: int, items: Iterable, name: str) -> None:
    """Check that ``items`` has exactly ``order`` elements."""
    items = list(items)
    if len(items) != order:
        raise ValueError(
            f"{name} must have {order} entries (one per mode), got {len(items)}"
        )


def check_dtype_real(array: np.ndarray, name: str) -> np.ndarray:
    """Ensure ``array`` has a real floating dtype, converting integers to float64."""
    arr = np.asarray(array)
    if np.issubdtype(arr.dtype, np.complexfloating):
        raise TypeError(f"{name} must be real-valued, got dtype {arr.dtype}")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


def check_finite(values: np.ndarray) -> None:
    """Reject NaN and ±Inf entries of a tensor's or batch's values.

    Raises one :class:`ValueError` giving the number of non-finite entries
    and the position and value of the first, before a kernel can turn them
    into an SVD that does not converge.
    """
    if np.isfinite(values).all():
        return
    bad = np.flatnonzero(~np.isfinite(values))
    raise ValueError(
        f"values contain {bad.size} non-finite "
        f"entr{'y' if bad.size == 1 else 'ies'} (NaN or ±Inf); the first is "
        f"{values[bad[0]]}, at position {bad[0]}"
    )
