"""Serving-engine configuration.

One keyword-only, validated dataclass, built directly
(``ServingConfig(max_batch_size=16)``).  Every field is a
primitive or the frozen :class:`~repro.core.config.RetryPolicy` (a
nested dict on the wire), so a config round-trips exactly through
:meth:`ServingConfig.to_dict` / :meth:`ServingConfig.from_dict` -- the form
checkpoint manifests and CI benchmark artifacts embed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RetryPolicy, config_from_dict, config_to_dict
from repro.core.faults import FaultPlan

EVAL_PATHS = ("palette", "dense")
"""Eval-mode execution paths for compressed layers: ``"palette"`` runs the
k-entry palette matmul (with the hot dequantized-tile LRU in front),
``"dense"`` reconstructs the full hard-assigned weight and runs the
ordinary gemm."""


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
            computes against the ``k``-entry palette -- multiplies scale
            with ``k``, not with dense out-features -- and fronts it with
            the dequantized-tile LRU; ``"dense"`` materializes the full
            hard-assigned weight (the pre-serving behavior).
        tile_cache_bytes_limit: soft cap on bytes of dequantized tiles
            resident across all served layers: least recently used tiles
            are evicted down to the budget and their rows fall back to
            the palette kernel.  ``0`` (default) means unlimited.
        temperature: sampling temperature for generation; ``0`` (default)
            is greedy decoding, which is what the bit-identity gates
            compare.
        poll_interval_s: how long the scheduler thread sleeps waiting for
            work when the queue is empty and no sequence is active.
        retry: the scheduler's :class:`~repro.core.config.RetryPolicy`
            -- the per-decode-step watchdog deadline (a step still
            running past it fails its batch with
            :class:`~repro.serving.queue.StepFailed`, its loop generation
            is revoked -- the stuck thread becomes a zombie whose late
            writes are discarded -- and a fresh loop is respawned), the
            retries of a step that raised
            :class:`~repro.serving.faults.TransientStepError` and their
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
        breaker_threshold: consecutive palette-path failures (kernel
            errors or tile checksum mismatches) on one layer before its
            circuit breaker trips that layer to the dense path.
        breaker_probation_steps: fault-free decode steps a tripped layer
            serves dense before the breaker re-enables its palette path
            (doubled on each re-trip, capped at 8x).
        fault_plan: a :class:`~repro.core.faults.FaultPlan` arming the
            server's deterministic fault injector (chaos testing), over
            the kinds of :data:`~repro.core.faults.FAULT_KINDS`.  ``None``
            (default) injects nothing.
    """

    max_batch_size: int = 8
    max_queue_depth: int = 64
    max_new_tokens: int = 16
    eval_path: str = "palette"
    tile_cache_bytes_limit: int = 0
    temperature: float = 0.0
    poll_interval_s: float = 0.005
    retry: RetryPolicy = RetryPolicy()
    join_timeout_s: float = 5.0
    drain_timeout_s: float = 30.0
    breaker_threshold: int = 2
    breaker_probation_steps: int = 16
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
        if self.tile_cache_bytes_limit < 0:
            raise ValueError(
                "tile_cache_bytes_limit must be >= 0 (0 = unlimited), "
                f"got {self.tile_cache_bytes_limit}"
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
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_probation_steps < 1:
            raise ValueError(
                "breaker_probation_steps must be >= 1, "
                f"got {self.breaker_probation_steps}"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                "fault_plan must be a FaultPlan or None, "
                f"got {type(self.fault_plan).__name__}"
            )

    def to_dict(self) -> dict:
        """A plain-primitive dict that :meth:`from_dict` rebuilds exactly;
        refuses while a ``fault_plan`` is armed (see
        :func:`~repro.core.config.config_to_dict`)."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ServingConfig":
        """Reconstruct a validated config from :meth:`to_dict` output
        (unknown keys raise ``ValueError``)."""
        return config_from_dict(cls, payload)

