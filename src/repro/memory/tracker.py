"""Per-device allocation tracking.

Every :class:`repro.tensor.storage.Storage` reports its logical byte size to
the tracker of the device it lives on when allocated, and reports the release
when it is garbage collected.  Trackers therefore measure *logical* device
residency: bf16 counts two bytes per element even though the simulation backs
it with fp32 numpy buffers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


class MemoryTracker:
    """Current/peak byte counters for a single simulated device.

    The tracker is deliberately dumb: it knows nothing about tensors, only
    about byte deltas.  ``peak`` is monotone within a lifetime and can be
    re-armed with :meth:`reset_peak` to scope measurements to a region.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        # Reentrant: a Storage's finalizer calls ``release``, and the
        # garbage collector can run it on any allocation -- including one
        # this thread makes while it holds the lock (``snapshot`` builds
        # its result under it).  A plain Lock would deadlock there.
        self._lock = threading.RLock()
        self._current = 0
        self._peak = 0
        self._alloc_count = 0
        self._free_count = 0

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current

    @property
    def peak_bytes(self) -> int:
        with self._lock:
            return self._peak

    @property
    def alloc_count(self) -> int:
        with self._lock:
            return self._alloc_count

    @property
    def free_count(self) -> int:
        with self._lock:
            return self._free_count

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative allocation of {nbytes} bytes")
        with self._lock:
            self._current += nbytes
            self._alloc_count += 1
            if self._current > self._peak:
                self._peak = self._current

    def release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative release of {nbytes} bytes")
        with self._lock:
            self._current -= nbytes
            self._free_count += 1

    def reset_peak(self) -> None:
        """Re-arm the peak counter at the current residency."""
        with self._lock:
            self._peak = self._current

    def snapshot(self) -> "TrackerSnapshot":
        with self._lock:
            return TrackerSnapshot(
                name=self.name,
                current_bytes=self._current,
                peak_bytes=self._peak,
                alloc_count=self._alloc_count,
                free_count=self._free_count,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            return (
                f"MemoryTracker({self.name!r}, current={self._current}, "
                f"peak={self._peak})"
            )


@dataclass(frozen=True)
class TrackerSnapshot:
    """Immutable point-in-time view of a tracker."""

    name: str
    current_bytes: int
    peak_bytes: int
    alloc_count: int
    free_count: int


@dataclass
class TrackerRegistry:
    """Name -> tracker map; one per process plus ad-hoc ones in tests."""

    _trackers: dict[str, MemoryTracker] = field(default_factory=dict)

    def get(self, name: str) -> MemoryTracker:
        tracker = self._trackers.get(name)
        if tracker is None:
            tracker = MemoryTracker(name)
            self._trackers[name] = tracker
        return tracker

    def names(self) -> list[str]:
        return sorted(self._trackers)

    def snapshot_all(self) -> dict[str, TrackerSnapshot]:
        return {name: t.snapshot() for name, t in self._trackers.items()}

    def reset_peaks(self) -> None:
        for tracker in self._trackers.values():
            tracker.reset_peak()


_GLOBAL_REGISTRY = TrackerRegistry()


def global_registry() -> TrackerRegistry:
    """The process-wide registry used by the default device objects."""
    return _GLOBAL_REGISTRY
