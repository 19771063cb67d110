"""Scoped memory profiling.

``profile_memory`` brackets a region of code: it snapshots the chosen device
trackers and the traffic ledger on entry, re-arms peaks, and on exit exposes
per-device peak deltas plus traffic generated inside the region.  Table 1,
Table 2 and Fig. 2 experiments are all phrased as such regions.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.memory.tracker import MemoryTracker
from repro.memory.traffic import TrafficLedger


@dataclass
class DeviceDelta:
    """Memory movement of one device across a profiled region."""

    name: str
    start_bytes: int
    end_bytes: int
    peak_bytes: int

    @property
    def peak_delta(self) -> int:
        """Peak residency growth above the starting level."""
        return self.peak_bytes - self.start_bytes


@dataclass
class MemoryProfile:
    """Result object populated by :func:`profile_memory`."""

    devices: dict[str, DeviceDelta] = field(default_factory=dict)
    traffic_bytes: dict[tuple[str, str], int] = field(default_factory=dict)
    traffic_transactions: dict[tuple[str, str], int] = field(default_factory=dict)

    def peak_delta(self, device: str) -> int:
        return self.devices[device].peak_delta

    def traffic(self, src: str, dst: str) -> int:
        return self.traffic_bytes.get((src, dst), 0)

    def transactions(self, src: str, dst: str) -> int:
        return self.traffic_transactions.get((src, dst), 0)


@contextlib.contextmanager
def profile_memory(
    trackers: list[MemoryTracker],
    ledger: TrafficLedger | None = None,
) -> Iterator[MemoryProfile]:
    """Measure peak/retained memory per tracker and traffic inside the block.

    Peaks are re-armed on entry so ``peak_delta`` reflects only growth caused
    by the profiled region, independent of allocations that happened before.
    """
    profile = MemoryProfile()
    starts: dict[str, int] = {}
    for tracker in trackers:
        tracker.reset_peak()
        starts[tracker.name] = tracker.current_bytes
    ledger_start = ledger.totals() if ledger is not None else {}
    try:
        yield profile
    finally:
        for tracker in trackers:
            snap = tracker.snapshot()
            profile.devices[tracker.name] = DeviceDelta(
                name=tracker.name,
                start_bytes=starts[tracker.name],
                end_bytes=snap.current_bytes,
                peak_bytes=snap.peak_bytes,
            )
        if ledger is not None:
            for route, (count, nbytes) in ledger.totals().items():
                count0, nbytes0 = ledger_start.get(route, (0, 0))
                if count == count0:
                    continue
                key = route[:2]  # (src, dst): tags are summed
                profile.traffic_bytes[key] = (
                    profile.traffic_bytes.get(key, 0) + nbytes - nbytes0
                )
                profile.traffic_transactions[key] = (
                    profile.traffic_transactions.get(key, 0) + count - count0
                )
