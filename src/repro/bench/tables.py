"""Fixed-width table rendering in the paper's row/column layout."""

from __future__ import annotations

from typing import Any, Sequence


class PaperTable:
    """Base of the paper-table results (each subclass is a dataclass).

    ``python -m repro.bench`` writes these as rendered ``<name>.txt``.
    """


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
    float_fmt: str = "{:.1f}",
) -> str:
    """A readable monospace table; floats formatted, None shown as '--'."""
    def fmt(cell: Any) -> str:
        if cell is None:
            return "--"
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in text_rows)) if text_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
