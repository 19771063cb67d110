"""The serving engine's fault taxonomy (chaos harness).

A serving process will see a palette kernel raise on a bad layout, a
cached dequantized tile rot in memory, and a decode step wedge or stall
long before it sees a clean crash; the supervised scheduler in
:mod:`repro.serving.server` recovers from all of them.  The trigger is
the deterministic injector of :mod:`repro.core.faults`: its
:data:`~repro.core.faults.FAULT_KINDS` table holds the five kinds
(``kernel_error``, ``corrupt_tile``, ``hang_step``, ``delay_step``,
``transient_step``), armed via ``ServingConfig.fault_plan`` and fired
by the server at the first decode step at or after each spec's
``sweep``.  This module keeps the exceptions the supervisor keys on:

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

from repro.serving.queue import ServingError


class PaletteKernelError(ServingError):
    """A layer's palette matmul kernel failed mid-step.

    Carries the layer name so the supervisor can charge the failure to
    exactly that layer's circuit breaker.  Raised by the server's fault
    hook to exercise the breaker; real kernel code may raise it for
    genuine layout corruption.
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


__all__ = [
    "CorruptTileError",
    "PaletteKernelError",
    "TransientStepError",
]
