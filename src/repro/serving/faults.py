"""The serving engine's fault model: deterministic injection and taxonomy.

A serving process will see a palette-path layer raise on a bad palette,
a resident dequantized weight rot in memory, and a decode step stall or
fail transiently long before it sees a clean crash.  The recovery paths of
:mod:`repro.serving.server` -- the crash boundary and bounded retry (see
``docs/robustness.md``) -- are only trustworthy if every one of them can
be triggered *on demand*, at a chosen point, repeatably.  This module is
that trigger, plus the exceptions the scheduler keys on.

A :class:`FaultPlan` names the injections: each :class:`FaultSpec` arms
one fault ``kind`` from a decode step on; a layer-scoped kind targets a
layer picked deterministically from the plan's seed ("some layer, same
one every run").  The
:data:`FAULT_KINDS` table says what each kind targets.  Armed via
``ServingConfig.fault_plan``,
:class:`~repro.serving.server.PaletteServer` opens every decode step
with :meth:`FaultInjector.begin` and asks :meth:`FaultInjector.fire`
from its palette-path hook, its resident-weight cache, and its step loop.  Every
injection is recorded in a :class:`FaultLog`, which the chaos benchmark
(``python -m repro.bench serving_faults``) cross-checks against the
recoveries it observed.

Determinism contract: for a fixed (plan, layer-name sequence), the
injector fires the same faults at the same points on every run -- no
wall-clock, no global RNG, only the plan's seed hashed with each spec's
index and step.  This is what lets the chaos gate demand *bit-identical*
tokens under every fault plan.

The names the scheduler keys on:

- :class:`TransientStepError` -- a decode-step failure worth retrying in
  place (backoff, same decode step, bounded by
  :data:`repro.serving.server.STEP_RETRIES`).
- :class:`PaletteKernelError` -- a layer's palette-path call failed; a
  transient step error.
- :class:`CorruptTileError` -- a resident dequantized layer weight failed
  its CRC-32 check; the poisoned entry is already dropped, so it too is a
  transient step error.
- :class:`~repro.serving.queue.StepFailed` (in :mod:`repro.serving.queue`)
  -- the typed error delivered through every future of a batch whose
  step could not be completed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.serving.queue import ServingError

FAULT_KINDS = {
    "kernel_error": "layer",
    "corrupt_tile": "layer",
    "delay_step": "step",
    "transient_step": "step",
}
"""Every injectable fault, as ``kind -> scope``.

``scope`` is what a spec targets: ``"layer"`` kinds hit one served layer
(raise from its palette-path call, poison its resident weight);
``"step"`` kinds hit the decode step itself (:data:`STEP_TARGET`: delay
it, or raise a retryable error).  A spec fires at the first
opportunity at or after its step: a ``corrupt_tile`` can only poison a
resident weight and a ``kernel_error`` only fires while its layer's
palette-path call runs, so a spec waits for one."""

STEP_TARGET = "<step>"
"""The resolved target of step-scoped specs: the decode step, no layer."""

DELAY_STEP_S = 0.05
"""How long a ``delay_step`` fault naps, blocking the thread that steps
the server: the chaos matrix's short stall."""


class TransientStepError(ServingError):
    """A decode-step failure that is expected to succeed on retry."""

    def __init__(self, detail: str = "injected"):
        super().__init__(f"transient decode-step failure ({detail})")
        self.detail = detail


class PaletteKernelError(TransientStepError):
    """A layer's palette-path matmul failed mid-step.

    Carries the layer name for the failure message.  Raised by the
    server's fault hook; real kernel code may raise it for a genuinely
    corrupt palette.  Retried like any :class:`TransientStepError`.
    """

    def __init__(self, layer: str, detail: str = "injected"):
        ServingError.__init__(
            self, f"palette kernel failed on layer {layer!r} ({detail})"
        )
        self.layer = layer
        self.detail = detail


class CorruptTileError(TransientStepError):
    """A resident dequantized layer weight failed its CRC-32 check.

    Raised by :class:`~repro.serving.palette.TileCache.get` when a
    resident weight's bytes no longer match the CRC-32 stamped at ``put``
    time -- bit-rot, a stray write through an alias, or the fault
    injector; accidental corruption, which is what a CRC detects.  The
    cache drops the poisoned entry before raising, so a retried step
    re-dequantizes cleanly.
    """

    def __init__(self, layer: str, detail: str = "checksum mismatch"):
        ServingError.__init__(
            self, f"corrupt resident weight for layer {layer!r}: {detail}"
        )
        self.layer = layer
        self.detail = detail


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: ``kind`` from decode step ``sweep`` on, ``times`` times.

    ``sweep`` is the 1-based decode step the spec arms at (the name is
    the fault log's key).  A layer-scoped kind resolves to a deterministic
    seeded pick from the step's layer list; step-scoped kinds target
    :data:`STEP_TARGET`.  ``times > 1`` re-fires on retries -- e.g. a
    ``transient_step`` with ``times`` above the retry budget fails the
    batch.  A ``delay_step`` naps :data:`DELAY_STEP_S` per firing.
    """

    kind: str
    sweep: int = 1
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {tuple(FAULT_KINDS)}"
            )
        if self.sweep < 1:
            raise ValueError(f"sweep is 1-based, got {self.sweep}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class FaultPlan:
    """A seedable, deterministic set of :class:`FaultSpec` injections.

    Attach to ``ServingConfig.fault_plan`` to arm the server's injector.
    The plan is immutable; the injector tracks firing state.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any sequence for ergonomics, store a tuple for hashing.
        object.__setattr__(self, "specs", tuple(self.specs))


@dataclass
class FaultEvent:
    """One injection, as recorded by the :class:`FaultLog`."""

    sweep: int
    layer: str
    kind: str
    detail: str = ""


class FaultLog:
    """Append-only record of every injection the injector performed.

    The chaos benchmark reconciles this log against the recoveries it
    observed (retries): every logged fault must have been
    survived, and no unlogged fault may have occurred.
    """

    def __init__(self) -> None:
        self.events: list[FaultEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def record(self, event: FaultEvent) -> None:
        """Append one injection."""
        self.events.append(event)


def _seeded_index(seed: int, spec_index: int, sweep: int, n: int) -> int:
    """Deterministic index in ``[0, n)`` from (seed, spec, sweep).

    blake2b rather than ``random``: no global state, no platform
    variance, and the same triple always picks the same layer -- the
    property the chaos gate's bit-identity claim rests on.
    """
    digest = hashlib.blake2b(
        f"{seed}:{spec_index}:{sweep}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % max(n, 1)


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan` (one per server).

    The server opens every decode step with :meth:`begin` and asks
    :meth:`fire` whether ``kind`` fires on a target right now; a firing
    consumes one of the spec's ``times`` and is logged.  Retries within
    a step ask again without a new :meth:`begin`, so a spec with
    ``times > 1`` re-fires on them.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.log = FaultLog()
        self.point = 0
        self._fired: dict[int, int] = {}
        self._targets: dict[int, str] = {}

    @classmethod
    def from_plan(cls, plan: "FaultPlan | None") -> "FaultInjector | None":
        """An injector for ``plan``, or ``None`` for a fault-free server."""
        return None if plan is None else cls(plan)

    def begin(self, point: int, names: Sequence[str]) -> None:
        """Open ``point`` (a decode step) over the layer ``names``.

        Arms every spec whose step is at or before ``point`` and resolves
        its target: step-scoped kinds target :data:`STEP_TARGET`, and
        layer-scoped kinds the seeded pick
        ``names[_seeded_index(seed, index, spec.sweep, len(names))]`` --
        the same layer at every point of every run.
        """
        self.point = point
        self._targets = {}
        for index, spec in enumerate(self.plan.specs):
            if spec.sweep > point:
                continue
            if FAULT_KINDS[spec.kind] == "step":
                self._targets[index] = STEP_TARGET
            elif names:
                self._targets[index] = names[
                    _seeded_index(self.plan.seed, index, spec.sweep, len(names))
                ]

    def fire(self, kind: str, target: str) -> FaultSpec | None:
        """Consume and log a matching armed spec, or return ``None``.

        A spec matches when it is armed at this point with this kind and
        target and has firings left.  At most one spec fires per call.
        """
        for index, spec in enumerate(self.plan.specs):
            if spec.kind != kind or self._targets.get(index) != target:
                continue
            fired = self._fired.get(index, 0)
            if fired >= spec.times:
                continue
            self._fired[index] = fired + 1
            self.log.record(
                FaultEvent(
                    sweep=self.point,
                    layer=target,
                    kind=kind,
                    detail=(
                        f"{DELAY_STEP_S}s"
                        if kind == "delay_step"
                        else f"firing {spec.times} time(s)"
                    ),
                )
            )
            return spec
        return None


__all__ = [
    "DELAY_STEP_S",
    "FAULT_KINDS",
    "STEP_TARGET",
    "CorruptTileError",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "PaletteKernelError",
    "TransientStepError",
]
