"""Baseline algorithms the paper compares against or builds on.

The MET-style TTM-chain HOOI (:func:`met_hooi`, the paper's Section V
comparison) and CP-ALS.  The dense Tucker reference every sparse
composition is held to is the NumPy-only oracle in ``tests/dense_oracle.py``,
which shares no code with the engine.
"""

from repro.baselines.met import met_hooi
from repro.baselines.cp_als import CPResult, cp_als, mttkrp

__all__ = [
    "met_hooi",
    "CPResult",
    "cp_als",
    "mttkrp",
]
