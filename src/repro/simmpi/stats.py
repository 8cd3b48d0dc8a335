"""Per-rank communication statistics.

The paper's Table III reports, per partitioning method, the maximum and
average per-process send/receive volume of one HOOI iteration.  The simulated
MPI layer records exactly that: every point-to-point message and every
collective contribution is charged to the participating ranks in *elements*
(doubles) and bytes, together with message counts and per-peer volumes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["CommStats"]


@dataclass
class CommStats:
    """Communication counters for a single rank."""

    rank: int
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    collective_bytes: int = 0
    collective_calls: int = 0
    per_peer_sent: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    per_peer_received: Dict[int, int] = field(default_factory=lambda: defaultdict(int))

    # ------------------------------------------------------------------ #
    def record_send(self, dest: int, nbytes: int) -> None:
        self.bytes_sent += int(nbytes)
        self.messages_sent += 1
        self.per_peer_sent[dest] += int(nbytes)

    def record_receive(self, source: int, nbytes: int) -> None:
        self.bytes_received += int(nbytes)
        self.messages_received += 1
        self.per_peer_received[source] += int(nbytes)

    def record_collective(self, nbytes: int) -> None:
        self.collective_bytes += int(nbytes)
        self.collective_calls += 1

    # ------------------------------------------------------------------ #
    @property
    def total_bytes(self) -> int:
        """Total point-to-point plus collective traffic charged to this rank."""
        return self.bytes_sent + self.bytes_received + self.collective_bytes

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.collective_bytes = 0
        self.collective_calls = 0
        self.per_peer_sent.clear()
        self.per_peer_received.clear()

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict summary (useful for asserts and reports)."""
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "collective_bytes": self.collective_bytes,
            "collective_calls": self.collective_calls,
        }
