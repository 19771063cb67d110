"""Byte-exact memory accounting for the simulated device hierarchy.

The paper's headline numbers (Tables 1 and 2) are *memory footprints*: bytes
resident on the GPU and on the CPU while a DKM layer runs forward + backward.
This package provides the instruments those experiments are built on:

- :class:`MemoryTracker` -- per-device current/peak byte counters, fed by
  storage allocation and release events from :mod:`repro.tensor.storage`.
- :class:`TrafficLedger` -- running totals of cross-device transfers (bytes
  moved and transaction count per route), the quantity eDKM's marshaling is
  designed to cut.
- :class:`MemoryProfile` / :func:`profile_memory` -- a scope that snapshots
  trackers before/after a region and reports deltas and peaks.
"""

from repro.memory.tracker import MemoryTracker, TrackerRegistry, global_registry
from repro.memory.traffic import TrafficLedger, global_ledger
from repro.memory.profile import MemoryProfile, profile_memory
from repro.memory.report import format_bytes

__all__ = [
    "MemoryTracker",
    "TrackerRegistry",
    "global_registry",
    "TrafficLedger",
    "global_ledger",
    "MemoryProfile",
    "profile_memory",
    "format_bytes",
]
