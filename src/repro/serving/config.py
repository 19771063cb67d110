"""Serving-engine configuration.

One keyword-only, validated dataclass, built directly
(``ServingConfig(max_batch_size=16)``).  Every field is a primitive, the
frozen :class:`RetryPolicy` or the in-memory ``fault_plan``.  The
scheduler's idle poll, its join and drain deadlines, its respawn budget,
the admission queue's depth and the retries of a transient step are
module constants of :mod:`repro.serving.server`, not knobs.  Decoding is
greedy: every request's tokens are the argmax of its logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.serving.faults import FaultPlan


@dataclass(frozen=True)
class RetryPolicy:
    """How the serving scheduler times out, retries and backs off.

    ``ServingConfig.retry`` holds one; the defaults are the server's.

    Attributes:
        timeout_s: watchdog deadline per decode step (a step still
            running is declared hung and its loop generation revoked).
            ``None`` (default) disables the watchdog; any other value
            must be finite and positive.
        backoff_s: base sleep before re-attempt ``n`` of a decode step
            that raised :class:`~repro.serving.faults.TransientStepError`
            (palette kernel and corrupt-tile errors included),
            ``backoff_s * 2**(n - 1)`` (see :meth:`backoff`); finite and
            non-negative.  The step is re-attempted
            :data:`~repro.serving.server.STEP_RETRIES` times before its
            batch fails with ``StepFailed``.
    """

    timeout_s: float | None = None
    backoff_s: float = 0.02

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0
        ):
            raise ValueError(
                f"timeout_s must be finite and positive, or None, got {self.timeout_s}"
            )
        if not (math.isfinite(self.backoff_s) and self.backoff_s >= 0):
            raise ValueError(
                f"backoff_s must be finite and >= 0, got {self.backoff_s}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before 1-based re-attempt ``attempt``."""
        return self.backoff_s * 2 ** (attempt - 1)


@dataclass(kw_only=True)
class ServingConfig:
    """Knobs of the palette-aware inference server.

    Attributes:
        max_batch_size: upper bound on sequences decoded together in one
            continuous-batching step.  New requests join the running batch
            between steps whenever a slot is free.
        max_new_tokens: per-request generation budget used when a request
            does not carry its own.
        retry: the scheduler's :class:`RetryPolicy`
            -- the per-decode-step watchdog deadline (a step still
            running past it fails its batch with
            :class:`~repro.serving.queue.StepFailed`, its loop generation
            is revoked -- the stuck thread becomes a zombie whose late
            writes are discarded -- and a fresh loop is respawned, up to
            :data:`~repro.serving.server.LOOP_RESPAWNS` times before the
            server fails over to rejecting work), and the backoff between
            the retries of a step that raised
            :class:`~repro.serving.faults.TransientStepError` (palette
            kernel and corrupt-tile errors are transient).  Default
            ``RetryPolicy()``, i.e. ``(None, 0.02)``: watchdog off.
        fault_plan: a :class:`~repro.serving.faults.FaultPlan` arming the
            server's deterministic fault injector (chaos testing), over
            the kinds of :data:`~repro.serving.faults.FAULT_KINDS`.
            ``None`` (default) injects nothing.
    """

    max_batch_size: int = 8
    max_new_tokens: int = 16
    retry: RetryPolicy = RetryPolicy()
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                "fault_plan must be a FaultPlan or None, "
                f"got {type(self.fault_plan).__name__}"
            )
