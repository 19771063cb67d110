"""Cross-device transfer ledger.

eDKM's marshaling exists to cut GPU<->CPU traffic: every avoided copy is both
bytes not moved and a transaction not issued.  The ledger records each
transfer with its endpoints and size so experiments can report totals per
direction, mirroring the "traffic between GPU and CPU" discussion in the
paper's Section 2.1.
"""

from __future__ import annotations

import threading
from typing import NamedTuple


class Transfer(NamedTuple):
    """A single cross-device copy."""

    src: str
    dst: str
    nbytes: int
    tag: str = ""


class TrafficLedger:
    """Append-only log of :class:`Transfer` events with cheap aggregates."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._transfers: list[Transfer] = []

    def record(self, src: str, dst: str, nbytes: int, tag: str = "") -> None:
        if nbytes < 0:
            raise ValueError(f"negative transfer of {nbytes} bytes")
        with self._lock:
            self._transfers.append(Transfer(src, dst, nbytes, tag))

    def transfers(self) -> list[Transfer]:
        with self._lock:
            return list(self._transfers)

    def total_bytes(
        self,
        src: str | None = None,
        dst: str | None = None,
        tag: str | None = None,
        tag_prefix: str | None = None,
    ) -> int:
        return sum(t.nbytes for t in self._select(src, dst, tag, tag_prefix))

    def transaction_count(
        self,
        src: str | None = None,
        dst: str | None = None,
        tag: str | None = None,
        tag_prefix: str | None = None,
    ) -> int:
        return len(self._select(src, dst, tag, tag_prefix))

    def by_tag(
        self,
        tag_prefix: str = "",
        src: str | None = None,
        dst: str | None = None,
    ) -> dict[str, int]:
        """Total bytes per tag, restricted to tags under ``tag_prefix``.

        The serving layer's per-request accounting: transfers are tagged
        ``serve:req<id>``, so ``by_tag("serve:req")`` yields one row per
        request.  Endpoint filters compose the same way as
        :meth:`total_bytes`.
        """
        totals: dict[str, int] = {}
        for t in self._select(src, dst, None, tag_prefix):
            totals[t.tag] = totals.get(t.tag, 0) + t.nbytes
        return totals

    def _select(
        self,
        src: str | None,
        dst: str | None,
        tag: str | None = None,
        tag_prefix: str | None = None,
    ) -> list[Transfer]:
        with self._lock:
            return [
                t
                for t in self._transfers
                if (src is None or t.src == src)
                and (dst is None or t.dst == dst)
                and (tag is None or t.tag == tag)
                and (tag_prefix is None or t.tag.startswith(tag_prefix))
            ]

    def clear(self) -> None:
        with self._lock:
            self._transfers.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._transfers)


_GLOBAL_LEDGER = TrafficLedger()


def global_ledger() -> TrafficLedger:
    """The process-wide ledger used by ``Tensor.to``."""
    return _GLOBAL_LEDGER
