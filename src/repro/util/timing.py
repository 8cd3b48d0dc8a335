"""Timing helpers used by the HOOI drivers and the experiment harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator
from contextlib import contextmanager

__all__ = ["TimingBreakdown"]


@dataclass
class TimingBreakdown:
    """Named cumulative timers, e.g. ``{"ttmc": 1.2, "trsvd": 0.4, "core": 0.1}``.

    Used by the HOOI drivers to report the per-step breakdown that the paper's
    Table IV presents (relative share of TTMc, TRSVD and core-tensor time).
    """

    totals: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def time(self, key: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(key, time.perf_counter() - t0)

    def add(self, key: str, seconds: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + float(seconds)

    def merge(self, other: "TimingBreakdown") -> "TimingBreakdown":
        for key, value in other.totals.items():
            self.add(key, value)
        return self

    def total(self) -> float:
        return sum(self.totals.values())

    def fractions(self) -> Dict[str, float]:
        """Return each timer's share of the total (empty dict if nothing timed)."""
        total = self.total()
        if total <= 0.0:
            return {k: 0.0 for k in self.totals}
        return {k: v / total for k, v in self.totals.items()}

    def as_percentages(self) -> Dict[str, float]:
        return {k: 100.0 * v for k, v in self.fractions().items()}

    def __getitem__(self, key: str) -> float:
        return self.totals.get(key, 0.0)
