"""Serving-engine configuration.

One keyword-only, validated dataclass, built directly
(``ServingConfig(max_batch_size=16)``).  Every field is a primitive or the
in-memory ``fault_plan``.  The admission queue's depth and the retries of a
transient step are module constants of :mod:`repro.serving.server`, not
knobs.  Decoding is greedy: every request's tokens are the argmax of its
logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.serving.faults import FaultPlan


@dataclass(kw_only=True)
class ServingConfig:
    """Knobs of the palette-aware inference server.

    Attributes:
        max_batch_size: upper bound on sequences decoded together in one
            continuous-batching step.  New requests join the running batch
            between steps whenever a slot is free.
        max_new_tokens: per-request generation budget used when a request
            does not carry its own.
        backoff_s: base sleep before re-attempt ``n`` of a decode step
            that raised :class:`~repro.serving.faults.TransientStepError`
            (palette kernel and corrupt-tile errors included),
            ``backoff_s * 2**(n - 1)``; finite and non-negative.  The step
            is re-attempted :data:`~repro.serving.server.STEP_RETRIES`
            times before its batch fails with
            :class:`~repro.serving.queue.StepFailed`.  Default 0.02 s.
        fault_plan: a :class:`~repro.serving.faults.FaultPlan` arming the
            server's deterministic fault injector (chaos testing), over
            the kinds of :data:`~repro.serving.faults.FAULT_KINDS`.
            ``None`` (default) injects nothing.
    """

    max_batch_size: int = 8
    max_new_tokens: int = 16
    backoff_s: float = 0.02
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if not (math.isfinite(self.backoff_s) and self.backoff_s >= 0):
            raise ValueError(
                f"backoff_s must be finite and >= 0, got {self.backoff_s}"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                "fault_plan must be a FaultPlan or None, "
                f"got {type(self.fault_plan).__name__}"
            )
