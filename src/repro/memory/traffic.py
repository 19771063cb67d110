"""Cross-device transfer ledger.

eDKM's marshaling exists to cut GPU<->CPU traffic: every avoided copy is both
bytes not moved and a transaction not issued.  The ledger counts each
transfer by its endpoints and tag so experiments can report totals per
direction, mirroring the "traffic between GPU and CPU" discussion in the
paper's Section 2.1.  It keeps running totals, one ``(count, nbytes)`` pair
per ``(src, dst, tag)``, so its size is bounded by the number of distinct
routes however long a run goes; a region's traffic is the difference of two
:meth:`TrafficLedger.totals` snapshots.
"""

from __future__ import annotations

import threading

Route = tuple[str, str, str]
"""``(src, dst, tag)``: the key the ledger totals under."""


class TrafficLedger:
    """Running ``(count, nbytes)`` totals of transfers per ``(src, dst, tag)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: dict[Route, tuple[int, int]] = {}

    def record(self, src: str, dst: str, nbytes: int, tag: str = "") -> None:
        if nbytes < 0:
            raise ValueError(f"negative transfer of {nbytes} bytes")
        key = (src, dst, tag)
        with self._lock:
            count, total = self._totals.get(key, (0, 0))
            self._totals[key] = (count + 1, total + nbytes)

    def totals(self) -> dict[Route, tuple[int, int]]:
        """A copy of the map ``(src, dst, tag) -> (count, nbytes)``."""
        with self._lock:
            return dict(self._totals)

    def total_bytes(
        self,
        src: str | None = None,
        dst: str | None = None,
        tag: str | None = None,
    ) -> int:
        """Bytes moved on every route matching the given endpoints and tag."""
        return sum(
            nbytes
            for (s, d, t), (_, nbytes) in self.totals().items()
            if (src is None or s == src)
            and (dst is None or d == dst)
            and (tag is None or t == tag)
        )

    def clear(self) -> None:
        with self._lock:
            self._totals.clear()

    def __len__(self) -> int:
        """The number of transfers recorded (not of routes)."""
        with self._lock:
            return sum(count for count, _ in self._totals.values())


_GLOBAL_LEDGER = TrafficLedger()


def global_ledger() -> TrafficLedger:
    """The process-wide ledger used by ``Tensor.to``."""
    return _GLOBAL_LEDGER
