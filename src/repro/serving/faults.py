"""Deterministic fault injection for the serving engine (chaos harness).

The serving counterpart of :mod:`repro.core.faults`: the compression
engine's chaos discipline -- seeded plans, an append-only audit log, and
bit-identity gates over every recovery path -- applied to the layer that
actually faces traffic.  A serving process will see a palette kernel
raise on a bad layout, a cached dequantized tile rot in memory, and a
decode step wedge or stall long before it sees a clean crash; the
supervised scheduler in :mod:`repro.serving.server` recovers from all of
them, and this module is the trigger that proves it.

A :class:`ServingFaultPlan` extends the seeded
:class:`~repro.core.faults.FaultPlan` machinery with serving fault
kinds; each :class:`ServingFaultSpec` arms one ``kind`` at a 1-based
decode ``step`` (the ``sweep`` field, aliased :attr:`ServingFaultSpec.
step`).  Layer-scoped kinds (``kernel_error``, ``corrupt_tile``) resolve
``layer=None`` to a deterministic seeded pick over the served palette
layers, exactly like the compression injector resolves over a sweep's
layer list; step-scoped kinds (``hang_step``, ``delay_step``,
``transient_step``) target the scheduler step itself.  Arm a plan via
``ServingConfig.fault_plan``; every injection lands in the shared
:class:`~repro.core.faults.FaultLog` shape that
``python -m repro.bench serving_faults`` reconciles against the recoveries
it observed.

Firing semantics differ from the compression injector in one deliberate
way: a spec fires at the *first opportunity at or after* its step rather
than at that step exactly.  A ``corrupt_tile`` can only poison a tile
that is resident, and a ``kernel_error`` only fires when its layer's
palette kernel actually runs -- "at step >= N" makes such plans
satisfiable without hand-tuning warm-up, while the seeded layer pick
keeps every run identical.

The exception taxonomy the supervisor keys on:

- :class:`TransientStepError` -- a decode-step failure worth retrying in
  place (backoff, same scheduler loop).
- :class:`PaletteKernelError` -- a layer's palette kernel failed; counts
  against that layer's circuit breaker (palette -> dense trip).
- :class:`CorruptTileError` -- a cached dequantized tile failed its
  CRC-32 check; the poisoned entry is dropped and the failure counts
  against the layer's breaker.
- :class:`StepFailed` (in :mod:`repro.serving.queue`) -- the typed error
  delivered through every future of a batch whose step could not be
  completed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from repro.core.faults import (
    FaultEvent,
    FaultLog,
    FaultPlan,
    FaultSpec,
    _seeded_index,
)
from repro.serving.queue import ServingError

SERVING_FAULT_KINDS = (
    "kernel_error",
    "corrupt_tile",
    "hang_step",
    "delay_step",
    "transient_step",
)
"""Injectable serving fault classes: raise from a chosen layer's palette
matmul, poison a checksummed cached tile, hang a decode step past the
step watchdog, delay it within the watchdog, or raise a retryable
scheduler exception."""

LAYER_FAULT_KINDS = ("kernel_error", "corrupt_tile")
"""The subset of :data:`SERVING_FAULT_KINDS` scoped to one served layer
(``layer=None`` resolves to a seeded pick over the palette layers)."""

STEP_TARGET = "<step>"
"""Resolved target of step-scoped specs -- the scheduler step itself,
not any layer."""

SERVING_FAULT_OP = "decode"
"""The ``op`` recorded on every serving :class:`FaultEvent`."""


class PaletteKernelError(ServingError):
    """A layer's palette matmul kernel failed mid-step.

    Carries the layer name so the supervisor can charge the failure to
    exactly that layer's circuit breaker.  Raised by the fault injector
    to exercise the breaker; real kernel code may raise it for genuine
    layout corruption.
    """

    def __init__(self, layer: str, detail: str = "injected"):
        super().__init__(f"palette kernel failed on layer {layer!r} ({detail})")
        self.layer = layer
        self.detail = detail


class CorruptTileError(ServingError):
    """A cached dequantized tile failed its CRC-32 check.

    Raised by :class:`~repro.serving.palette.TileCache.get` when a
    resident tile's bytes no longer match the CRC-32 stamped at ``put``
    time -- bit-rot, a stray write through an alias, or the fault
    injector; accidental corruption, which is what a CRC detects.  The
    cache drops the poisoned entry before raising, so a retried step
    re-dequantizes cleanly.
    """

    def __init__(self, layer: str, detail: str = "checksum mismatch"):
        super().__init__(f"corrupt cached tile for layer {layer!r}: {detail}")
        self.layer = layer
        self.detail = detail


class TransientStepError(ServingError):
    """A decode-step failure that is expected to succeed on retry."""

    def __init__(self, detail: str = "injected"):
        super().__init__(f"transient decode-step failure ({detail})")
        self.detail = detail


@dataclass(frozen=True)
class ServingFaultSpec(FaultSpec):
    """One armed serving fault: ``kind`` at decode step >= ``step``.

    Reuses the :class:`~repro.core.faults.FaultSpec` fields with serving
    semantics: ``sweep`` is the 1-based decode step the spec arms at
    (exposed as :attr:`step`), ``layer`` pins a layer-scoped kind to one
    served layer (``None`` = seeded pick), ``times`` re-fires on step
    retries, and ``seconds`` sizes ``hang_step``/``delay_step`` naps.
    """

    VALID_KINDS: ClassVar[tuple[str, ...]] = SERVING_FAULT_KINDS

    @property
    def step(self) -> int:
        """The 1-based decode step this spec arms at (alias of ``sweep``)."""
        return self.sweep


@dataclass(frozen=True)
class ServingFaultPlan(FaultPlan):
    """A seedable, deterministic set of :class:`ServingFaultSpec`.

    Attach to ``ServingConfig.fault_plan`` to arm the server's injector.
    ``ServingFaultPlan.single("hang_step", sweep=2, seconds=1.0)`` is the
    common chaos-benchmark shape.
    """

    SPEC_CLASS: ClassVar[type] = ServingFaultSpec


class ServingFaultInjector:
    """Stateful executor of a :class:`ServingFaultPlan` (one per server).

    Driven by the supervised scheduler: :meth:`arm` resolves
    ``layer=None`` specs against the served palette-layer names once,
    :meth:`begin_step` advances the decode-step counter (once per
    scheduler step -- retries of the same step re-query without
    advancing, consuming additional ``times`` exactly like the
    compression injector's retry re-fires), and the ``maybe_*`` probes
    answer "does a fault fire here, now?", consuming and logging on
    fire.  All methods run on the scheduler thread; the injector is
    deliberately lock-free and must not be shared across live loop
    generations (a revoked loop never touches it again -- see the
    stale-generation checks in :mod:`repro.serving.server`).
    """

    def __init__(self, plan: ServingFaultPlan) -> None:
        self.plan = plan
        self.log = FaultLog()
        self._step = 0
        self._fired: dict[int, int] = {}
        self._resolved: dict[int, str] = {}
        self._armed = False

    @classmethod
    def from_plan(
        cls, plan: "ServingFaultPlan | None"
    ) -> "ServingFaultInjector | None":
        """An injector for ``plan``, or ``None`` for a fault-free server."""
        return None if plan is None else cls(plan)

    def arm(self, layer_names: Sequence[str]) -> None:
        """Resolve every spec's target against the served layer list.

        Layer-scoped specs with ``layer=None`` pick deterministically via
        the plan seed; step-scoped specs always target
        :data:`STEP_TARGET`.  Idempotent -- the supervisor re-arms on
        loop respawn without moving any pick.
        """
        if self._armed:
            return
        names = list(layer_names)
        for index, spec in enumerate(self.plan.specs):
            if spec.kind not in LAYER_FAULT_KINDS:
                self._resolved[index] = STEP_TARGET
            elif spec.layer is not None:
                self._resolved[index] = spec.layer
            elif names:
                self._resolved[index] = names[
                    _seeded_index(self.plan.seed, index, spec.sweep, len(names))
                ]
        self._armed = True

    def begin_step(self) -> int:
        """Advance to the next decode step; returns the 1-based step."""
        self._step += 1
        return self._step

    @property
    def steps_begun(self) -> int:
        """Decode steps the scheduler has started so far."""
        return self._step

    def _consume(self, index: int, spec: ServingFaultSpec, target: str) -> None:
        self._fired[index] = self._fired.get(index, 0) + 1
        self.log.record(
            FaultEvent(
                sweep=self._step,
                layer=target,
                op=SERVING_FAULT_OP,
                kind=spec.kind,
                detail=(
                    f"{spec.seconds}s"
                    if spec.kind in ("hang_step", "delay_step")
                    else f"firing {spec.times} time(s)"
                ),
            )
        )

    def _candidates(
        self, kinds: tuple[str, ...], target: str | None = None
    ) -> "list[tuple[int, ServingFaultSpec]]":
        out = []
        for index, spec in enumerate(self.plan.specs):
            if spec.kind not in kinds or self._step < spec.sweep:
                continue
            if self._fired.get(index, 0) >= spec.times:
                continue
            if target is not None and self._resolved.get(index) != target:
                continue
            out.append((index, spec))
        return out

    # ------------------------------------------------------------------
    # Probes (scheduler thread)
    # ------------------------------------------------------------------

    def maybe_kernel_error(self, layer: str) -> None:
        """Raise :class:`PaletteKernelError` if one fires for ``layer`` now.

        Installed as the palette executor's ``fault_hook``, so the error
        genuinely originates inside the layer's kernel call during a
        decode forward -- the exact path the circuit breaker guards.
        """
        for index, spec in self._candidates(("kernel_error",), layer):
            self._consume(index, spec, layer)
            raise PaletteKernelError(layer)

    def maybe_corrupt_tiles(self, cache) -> int:
        """Poison one resident tile per armed ``corrupt_tile`` spec.

        Consumes and logs a spec only when a tile of its target layer is
        actually resident to corrupt (``cache.corrupt_one``); otherwise
        the spec stays armed for a later step.  Returns tiles poisoned.
        """
        if cache is None:
            return 0
        poisoned = 0
        for index, spec in self._candidates(("corrupt_tile",)):
            target = self._resolved.get(index)
            if target is None or target == STEP_TARGET:
                continue
            if cache.corrupt_one((target,)):
                self._consume(index, spec, target)
                poisoned += 1
        return poisoned

    def step_sleep(self) -> float:
        """Seconds the current step should nap (``hang_step``/``delay_step``).

        A hang is simply a nap the plan sized past the step watchdog
        deadline, so the supervisor revokes the loop mid-sleep.
        """
        seconds = 0.0
        for index, spec in self._candidates(
            ("hang_step", "delay_step"), STEP_TARGET
        ):
            self._consume(index, spec, STEP_TARGET)
            seconds += spec.seconds
        return seconds

    def maybe_transient(self) -> None:
        """Raise :class:`TransientStepError` if one fires for this step."""
        for index, spec in self._candidates(("transient_step",), STEP_TARGET):
            self._consume(index, spec, STEP_TARGET)
            raise TransientStepError()


__all__ = [
    "LAYER_FAULT_KINDS",
    "SERVING_FAULT_KINDS",
    "SERVING_FAULT_OP",
    "STEP_TARGET",
    "CorruptTileError",
    "PaletteKernelError",
    "ServingFaultInjector",
    "ServingFaultPlan",
    "ServingFaultSpec",
    "TransientStepError",
]
