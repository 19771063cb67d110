"""In-memory span recorder for the e2e benchmark's traced runs.

Benchmark-local on purpose: spans are recorded around calls *into* the
library from the benchmark's own files (``repro.obs`` is a later change).
The clock is injected, spans stay in memory until the run ends, and a
span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import defaultdict
from typing import Callable, Iterator


class Tracer:
    """Nested ``{name, start, end, parent, workload, attrs}`` spans."""

    def __init__(self, clock: Callable[[], float], workload: str, enabled: bool = True) -> None:
        self.clock = clock
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict | None]:
        """Record one span around the ``with`` body (no-op while disabled)."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = self._new(name, self.clock(), None, parent, attrs)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None, **attrs) -> int:
        """Record a span from stamps taken elsewhere (e.g. on a request)."""
        self._new(name, start, end, parent, attrs)
        return len(self.spans) - 1

    def _new(self, name, start, end, parent, attrs) -> dict:
        record = {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "workload": self.workload,
            "attrs": attrs,
        }
        self.spans.append(record)
        return record

    @property
    def current(self) -> int | None:
        """Index of the innermost open span (the parent for :meth:`add`)."""
        return self._stack[-1] if self._stack else None

    def intervals(self, name: str) -> list[tuple[float, float]]:
        """``(start, end)`` of every closed span called ``name``."""
        return [
            (s["start"], s["end"])
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def self_times(self) -> list[float]:
        """Per-span self time in seconds: duration minus child coverage.

        Children may overlap each other (concurrent requests under one
        serving phase), so coverage is the union of their intervals
        clipped to the parent.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start"], span["end"]))
        out = []
        for index, span in enumerate(self.spans):
            covered, edge = 0.0, span["start"]
            for start, end in sorted(children[index]):
                start, end = max(start, edge), min(end, span["end"])
                if end > start:
                    covered += end - start
                    edge = end
            out.append(span["end"] - span["start"] - covered)
        return out

    def problems(self) -> list[str]:
        """Why the span tree is malformed (empty list when it is fine)."""
        found = []
        roots = [s for s in self.spans if s["parent"] is None]
        if len(roots) != 1:
            found.append(f"{len(roots)} root spans, expected 1")
        for span in self.spans:
            if span["end"] is None or span["end"] < span["start"]:
                found.append(f"span {span['name']} is open or ends before it starts")
            elif span["parent"] is not None:
                parent = self.spans[span["parent"]]
                if span["start"] < parent["start"] or span["end"] > parent["end"]:
                    found.append(f"span {span['name']} leaves its parent {parent['name']}")
        if not found and min(self.self_times(), default=0.0) < -1e-9:
            found.append("negative self time")
        return found

    def top_n(self, n: int = 25) -> str:
        """Text table of span names by total self time."""
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span, self_s in zip(self.spans, self.self_times()):
            row = totals[span["name"]]
            row[0] += 1
            row[1] += span["end"] - span["start"]
            row[2] += self_s
        lines = [f"{'span':<44} {'count':>7} {'total ms':>12} {'self ms':>12}"]
        for name, (count, total, self_s) in sorted(
            totals.items(), key=lambda item: -item[1][2]
        )[:n]:
            lines.append(f"{name:<44} {count:>7} {total * 1e3:>12.2f} {self_s * 1e3:>12.2f}")
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace / Perfetto complete ("X") events."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "cat": self.workload,
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 1,
                "tid": s["attrs"].get("lane", 0),
                "args": s["attrs"],
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, out_dir: str, stem: str) -> list[str]:
        """Write ``<stem>.trace.json`` and ``<stem>.top.txt``; return paths."""
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"{stem}.trace.json")
        top_path = os.path.join(out_dir, f"{stem}.top.txt")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)
        with open(top_path, "w", encoding="utf-8") as fh:
            fh.write(self.top_n() + "\n")
        return [trace_path, top_path]
