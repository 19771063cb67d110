"""Human-readable formatting of memory measurements."""

from __future__ import annotations

_UNITS = ["B", "KB", "MB", "GB", "TB"]


def format_bytes(nbytes: float, precision: int = 2) -> str:
    """Render a byte count with a binary-1024 unit, e.g. ``4.00 MB``."""
    value = float(nbytes)
    sign = "-" if value < 0 else ""
    value = abs(value)
    for unit in _UNITS:
        if value < 1024.0 or unit == _UNITS[-1]:
            return f"{sign}{value:.{precision}f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")
