"""Serving-engine configuration.

One keyword-only, validated dataclass, built directly
(``ServingConfig(max_batch_size=16)``).  Every field is a
primitive, the frozen :class:`RetryPolicy` (a nested dict on the wire)
or the in-memory ``fault_plan``, so a disarmed config round-trips
exactly through :meth:`ServingConfig.to_dict` /
:meth:`ServingConfig.from_dict` -- the form checkpoint manifests and CI
benchmark artifacts embed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import config_from_dict, config_to_dict
from repro.serving.faults import FaultPlan


@dataclass(frozen=True)
class RetryPolicy:
    """How the serving scheduler times out, retries, backs off and respawns.

    ``ServingConfig.retry`` holds one; the defaults are the server's.

    Attributes:
        timeout_s: watchdog deadline per decode step (a step still
            running is declared hung and its loop generation revoked).
            ``None`` (default) disables the watchdog.
        retries: retries of a decode step that raised
            :class:`~repro.serving.faults.TransientStepError` (palette
            kernel and corrupt-tile errors included) before its batch
            fails with ``StepFailed``.
        backoff_s: base sleep before re-attempt ``n`` after a transient
            failure, ``backoff_s * 2**(n - 1)`` (see :meth:`backoff`).
        respawns: scheduler-loop respawn budget for the server's
            lifetime.  Past it the server is marked dead and rejects
            work.
    """

    timeout_s: float | None = None
    retries: int = 2
    backoff_s: float = 0.02
    respawns: int = 4

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive or None, got {self.timeout_s}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.respawns < 0:
            raise ValueError(f"respawns must be >= 0, got {self.respawns}")

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before 1-based re-attempt ``attempt``."""
        return self.backoff_s * 2 ** (attempt - 1)

    def to_dict(self) -> dict:
        """The four fields as a plain dict (nested in a config's dict)."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RetryPolicy":
        """Rebuild a validated policy (unknown keys raise ``ValueError``)."""
        return config_from_dict(cls, payload)


EVAL_PATHS = ("palette", "dense")
"""Eval-mode execution paths for compressed layers: ``"palette"`` keeps
each layer's lut and uint8 indices and serves one resident, CRC-32-checked
``lut[indices]`` per weight version by gemm; ``"dense"`` reconstructs the
full hard-assigned weight as a tensor and runs the ordinary gemm."""


@dataclass(kw_only=True)
class ServingConfig:
    """Knobs of the palette-aware inference server.

    Attributes:
        max_batch_size: upper bound on sequences decoded together in one
            continuous-batching step.  New requests join the running batch
            between steps whenever a slot is free.
        max_queue_depth: admission-control bound on *waiting* requests.
            A submit against a full queue is rejected immediately with
            :class:`~repro.serving.queue.AdmissionError` instead of
            growing an unbounded backlog.
        max_new_tokens: per-request generation budget used when a request
            does not carry its own.
        eval_path: how eval-mode ``ClusteredLinear`` layers execute their
            matmul, one of :data:`EVAL_PATHS`.  ``"palette"`` (default)
            dequantizes each layer's palette once per weight version into
            one resident weight in the server's ``TileCache``, verified on
            every read; ``"dense"`` materializes the full hard-assigned
            weight as a tensor (the pre-serving behavior).
        temperature: sampling temperature for generation; ``0`` (default)
            is greedy decoding, which is what the bit-identity gates
            compare.
        poll_interval_s: how long the scheduler thread sleeps waiting for
            work when the queue is empty and no sequence is active.
        retry: the scheduler's :class:`RetryPolicy`
            -- the per-decode-step watchdog deadline (a step still
            running past it fails its batch with
            :class:`~repro.serving.queue.StepFailed`, its loop generation
            is revoked -- the stuck thread becomes a zombie whose late
            writes are discarded -- and a fresh loop is respawned), the
            retries of a step that raised
            :class:`~repro.serving.faults.TransientStepError` (palette
            kernel and corrupt-tile errors are transient) and their
            backoff, and the loop-respawn budget after which the server
            fails over to rejecting work (dead-loop admission raises
            :class:`~repro.serving.queue.ServerClosed`).  Default
            ``RetryPolicy()``, i.e. ``(None, 2, 0.02, 4)``: watchdog off.
        join_timeout_s: how long :meth:`PaletteServer.stop` waits for the
            scheduler thread to exit before escalating (warn, zombify the
            loop, fail whatever is still in flight) instead of
            deadlocking the caller.
        drain_timeout_s: deadline for ``stop(drain=True)`` to finish
            in-flight and queued work before falling back to a hard stop.
        fault_plan: a :class:`~repro.serving.faults.FaultPlan` arming the
            server's deterministic fault injector (chaos testing), over
            the kinds of :data:`~repro.serving.faults.FAULT_KINDS`.
            ``None`` (default) injects nothing.
    """

    max_batch_size: int = 8
    max_queue_depth: int = 64
    max_new_tokens: int = 16
    eval_path: str = "palette"
    temperature: float = 0.0
    poll_interval_s: float = 0.005
    retry: RetryPolicy = RetryPolicy()
    join_timeout_s: float = 5.0
    drain_timeout_s: float = 30.0
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.eval_path not in EVAL_PATHS:
            raise ValueError(
                f"unknown eval_path {self.eval_path!r}; expected one of {EVAL_PATHS}"
            )
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        if self.join_timeout_s <= 0:
            raise ValueError(
                f"join_timeout_s must be positive, got {self.join_timeout_s}"
            )
        if self.drain_timeout_s <= 0:
            raise ValueError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                "fault_plan must be a FaultPlan or None, "
                f"got {type(self.fault_plan).__name__}"
            )

    def to_dict(self) -> dict:
        """A plain-primitive dict that :meth:`from_dict` rebuilds exactly,
        with ``retry`` as a nested dict.

        An armed ``fault_plan`` refuses to serialize: fault plans are
        in-memory chaos-test instruments, and silently dropping one would
        make a persisted artifact claim a cleaner run than actually
        happened.
        """
        if self.fault_plan is not None:
            raise ValueError(
                "ServingConfig with an armed fault_plan cannot be "
                "serialized; disarm it first"
            )
        payload = config_to_dict(self)
        del payload["fault_plan"]
        payload["retry"] = self.retry.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServingConfig":
        """Reconstruct a validated config from :meth:`to_dict` output
        (unknown keys, nested ones included, raise ``ValueError``)."""
        if "retry" in payload:
            payload = {**payload, "retry": RetryPolicy.from_dict(payload["retry"])}
        return config_from_dict(cls, payload)

