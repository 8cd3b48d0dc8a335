"""Shared utilities: validation, timing, logging and small linear-algebra helpers.

These modules are deliberately dependency-free (NumPy only) so that every
other subpackage can use them without creating import cycles.
"""

from repro.util.validation import (
    check_axis,
    check_dtype_real,
    check_positive_int,
    check_rank_vector,
    check_same_order,
    check_shape_vector,
)
from repro.util.timing import TimingBreakdown
from repro.util.linalg import (
    normalize_columns,
    orthonormalize,
    random_orthonormal,
)

__all__ = [
    "check_axis",
    "check_dtype_real",
    "check_positive_int",
    "check_rank_vector",
    "check_same_order",
    "check_shape_vector",
    "TimingBreakdown",
    "normalize_columns",
    "orthonormalize",
    "random_orthonormal",
]
