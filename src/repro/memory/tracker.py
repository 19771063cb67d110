"""Per-device allocation tracking.

Every :class:`repro.tensor.storage.Storage` reports its logical byte size to
the tracker of the device it lives on when allocated, and reports the release
when it is garbage collected.  Trackers therefore measure *logical* device
residency: bf16 counts two bytes per element even though the simulation backs
it with fp32 numpy buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class OpScope:
    """The name of the autograd op that is running; ``""`` outside any op.

    ``Function.apply`` stores the op's name on entry and restores the outer
    one on exit; ``autograd.backward`` stores ``"<op>.backward"`` as it
    reaches each node and restores the outer name when the pass ends.  So a
    tracker can name the op whose allocation raised its peak, forward or
    backward, without knowing anything about ops.
    """

    __slots__ = ("name",)

    def __init__(self) -> None:
        self.name = ""


OP_SCOPE = OpScope()


class MemoryTracker:
    """Current/peak byte counters for a single simulated device.

    The tracker is deliberately dumb: it knows nothing about tensors, only
    about byte deltas.  ``peak`` is monotone within a lifetime and can be
    re-armed with :meth:`reset_peak` to scope measurements to a region.
    An allocation that raises the peak also records :data:`OP_SCOPE`'s
    name as ``peak_op``; one below the peak does no extra work.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._current = 0
        self._peak = 0
        self._peak_op = ""
        self._alloc_count = 0
        self._free_count = 0

    @property
    def current_bytes(self) -> int:
        return self._current

    @property
    def alloc_count(self) -> int:
        return self._alloc_count

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative allocation of {nbytes} bytes")
        self._current += nbytes
        self._alloc_count += 1
        if self._current > self._peak:
            self._peak = self._current
            self._peak_op = OP_SCOPE.name

    def release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative release of {nbytes} bytes")
        self._current -= nbytes
        self._free_count += 1

    def reset_peak(self) -> None:
        """Re-arm the peak counter at the current residency."""
        self._peak = self._current
        self._peak_op = ""

    def snapshot(self) -> "TrackerSnapshot":
        return TrackerSnapshot(
            name=self.name,
            current_bytes=self._current,
            peak_bytes=self._peak,
            peak_op=self._peak_op,
            alloc_count=self._alloc_count,
            free_count=self._free_count,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
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
    # ``op_name`` of the ``Function.apply`` whose allocation last raised
    # the peak, or ``""`` when none did (outside any op, or since a reset).
    peak_op: str
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

    def snapshot_all(self) -> dict[str, TrackerSnapshot]:
        return {name: t.snapshot() for name, t in self._trackers.items()}

    def reset_peaks(self) -> None:
        for tracker in self._trackers.values():
            tracker.reset_peak()


_GLOBAL_REGISTRY = TrackerRegistry()


def global_registry() -> TrackerRegistry:
    """The process-wide registry used by the default device objects."""
    return _GLOBAL_REGISTRY
