"""Per-layer palette→dense circuit breaker for the serving engine.

When a layer's palette kernel keeps raising (:class:`PaletteKernelError`)
or its tile cache keeps failing CRC-32 checks
(:class:`~repro.serving.faults.CorruptTileError`), serving that layer
through the palette path is a liability -- but the *dense* eval path is
bit-identical by construction (both paths decode the same hard
centroid/assignment products; see ``docs/serving.md``), so degrading is
free in output terms.  :class:`BreakerBoard` tracks one breaker per
palette layer:

``closed``
    Healthy: the layer serves through the palette path.  Consecutive
    failures are counted; at ``threshold`` the breaker trips.
``open``
    Tripped: the server flips the layer to dense
    (``disable_palette_eval``) and starts a probation countdown.  Each
    fault-free step decrements it; a failure elsewhere does not reset
    other layers' countdowns.
``half_open``
    Probation served: the server re-enables the palette path.  One clean
    step closes the breaker; a failure while half-open re-trips it with
    a doubled probation (capped at 8x the configured base) so a flapping
    layer spends progressively longer dense.

The board is the cross-thread source of truth for breaker state (the
scheduler mutates it, ``health()`` snapshots it), so it owns its lock;
``_``-prefixed helpers expect the caller to hold it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Probation doubling stops at this multiple of the configured base.
MAX_PROBATION_FACTOR = 8


@dataclass(frozen=True)
class BreakerSnapshot:
    """Point-in-time view of one layer's breaker (for ``health()``)."""

    layer: str
    state: str
    consecutive_failures: int
    probation_remaining: int
    trips: int
    repromotions: int

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form for health snapshots and bench artifacts."""
        return {
            "layer": self.layer,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "probation_remaining": self.probation_remaining,
            "trips": self.trips,
            "repromotions": self.repromotions,
        }


class _Breaker:
    """Mutable per-layer record; all access via the board's lock."""

    __slots__ = (
        "state",
        "consecutive_failures",
        "probation_remaining",
        "probation_steps",
        "trips",
        "repromotions",
    )

    def __init__(self, probation_steps: int) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.probation_remaining = 0
        self.probation_steps = probation_steps
        self.trips = 0
        self.repromotions = 0


class BreakerBoard:
    """Per-layer failure accounting and palette/dense routing decisions.

    The board never touches the model -- it only decides.  The server
    reacts to the returned actions: ``"trip"``/``"retrip"`` mean *flip
    this layer to dense now*, and layers returned from
    :meth:`note_clean_step` mean *re-enable the palette path for these*.
    """

    def __init__(self, threshold: int, probation_steps: int) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if probation_steps < 1:
            raise ValueError(
                f"probation_steps must be >= 1, got {probation_steps}"
            )
        self.threshold = threshold
        self.base_probation_steps = probation_steps
        self._lock = threading.Lock()
        self._breakers: dict[str, _Breaker] = {}

    # ------------------------------------------------------------------
    # Scheduler surface
    # ------------------------------------------------------------------

    def note_failure(self, layer: str) -> str:
        """Record a palette-path failure on ``layer``.

        Returns the action the server must take:

        - ``"count"``  -- below threshold; keep serving palette.
        - ``"trip"``   -- threshold reached while closed; flip to dense.
        - ``"retrip"`` -- failed while half-open; flip back to dense with
          a doubled probation.
        - ``"open"``   -- already dense; nothing to flip (late failure
          from a step that straddled the trip).
        """
        with self._lock:
            breaker = self._get(layer)
            if breaker.state == OPEN:
                return "open"
            if breaker.state == HALF_OPEN:
                breaker.state = OPEN
                breaker.trips += 1
                breaker.consecutive_failures = 0
                breaker.probation_steps = min(
                    breaker.probation_steps * 2,
                    self.base_probation_steps * MAX_PROBATION_FACTOR,
                )
                breaker.probation_remaining = breaker.probation_steps
                return "retrip"
            breaker.consecutive_failures += 1
            if breaker.consecutive_failures < self.threshold:
                return "count"
            breaker.state = OPEN
            breaker.trips += 1
            breaker.consecutive_failures = 0
            breaker.probation_remaining = breaker.probation_steps
            return "trip"

    def note_clean_step(self) -> list[str]:
        """Record one fault-free decode step.

        Decrements every open breaker's probation countdown and closes
        every half-open breaker (its probe step succeeded).  Returns the
        layers whose probation just expired -- the server must re-enable
        the palette path for them (they move to ``half_open`` until the
        next clean step confirms).
        """
        promoted: list[str] = []
        with self._lock:
            for layer, breaker in self._breakers.items():
                if breaker.state == HALF_OPEN:
                    breaker.state = CLOSED
                    breaker.repromotions += 1
                    breaker.probation_steps = self.base_probation_steps
                elif breaker.state == OPEN:
                    breaker.probation_remaining -= 1
                    if breaker.probation_remaining <= 0:
                        breaker.state = HALF_OPEN
                        promoted.append(layer)
                elif breaker.consecutive_failures:
                    breaker.consecutive_failures = 0
        return promoted

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def states(self) -> dict[str, BreakerSnapshot]:
        """Snapshot every tracked layer's breaker."""
        with self._lock:
            return {
                layer: BreakerSnapshot(
                    layer=layer,
                    state=breaker.state,
                    consecutive_failures=breaker.consecutive_failures,
                    probation_remaining=max(0, breaker.probation_remaining),
                    trips=breaker.trips,
                    repromotions=breaker.repromotions,
                )
                for layer, breaker in self._breakers.items()
            }

    def open_layers(self) -> list[str]:
        """Layers currently serving dense (tripped, probation running)."""
        with self._lock:
            return [
                layer
                for layer, breaker in self._breakers.items()
                if breaker.state == OPEN
            ]

    def total_trips(self) -> int:
        """Palette->dense trips across all layers since construction."""
        with self._lock:
            return sum(b.trips for b in self._breakers.values())

    def total_repromotions(self) -> int:
        """Breakers closed again (probation + probe step served clean)."""
        with self._lock:
            return sum(b.repromotions for b in self._breakers.values())

    # ------------------------------------------------------------------
    # Internals (caller holds the lock)
    # ------------------------------------------------------------------

    def _get(self, layer: str) -> _Breaker:
        breaker = self._breakers.get(layer)
        if breaker is None:
            breaker = _Breaker(self.base_probation_steps)
            self._breakers[layer] = breaker
        return breaker
