"""Deterministic fault injection for the compression engine (chaos harness).

A days-long train-time clustering run will see worker crashes, hangs,
corrupted payloads, and externally-reaped ``/dev/shm`` segments long
before it sees an OOM.  The engine's recovery paths -- watchdog respawn,
bounded retry, poison-layer quarantine, shm re-export, checkpoint/resume,
and backend degradation (see ``docs/robustness.md``) -- are only
trustworthy if every one of them can be triggered *on demand*, at a
chosen point, repeatably.  This module is that trigger.

A :class:`FaultPlan` names the injections: each :class:`FaultSpec` arms
one fault ``kind`` at a ``(sweep, layer)`` point (``layer=None`` picks a
layer deterministically from the plan's seed, so "some layer, same one
every run" is expressible without naming layers up front).  The
:class:`FaultInjector` is driven by
:class:`~repro.core.procpool.ProcessLayerEngine`: at every sweep it is
asked, per layer, whether a fault fires *here*; worker-side kinds come
back as a picklable :class:`FaultDirective` attached to the shipped task
(the worker executes it via :func:`apply_directive` -- killing itself,
sleeping, or raising), parent-side kinds (payload corruption, shm drop)
are applied by the engine before the task ships.  Every injection is
recorded in a :class:`FaultLog`, which the chaos benchmark
(``python -m repro.bench faults``) cross-checks against the recoveries it
observed.

Determinism contract: for a fixed (plan, layer-name sequence), the
injector fires the same faults at the same points on every run -- no
wall-clock, no global RNG, only the plan's seed hashed with each spec's
index and sweep.  This is what lets the chaos gate demand *bit-identical*
results under every fault plan.

The exception taxonomy the recovery paths key on also lives here:

- :class:`TransientWorkerError` -- a worker-side failure worth retrying
  in place (backoff, no respawn).
- :class:`CorruptPayload` -- a shipped payload failed its integrity
  digest; re-ship full, no respawn.
- :class:`WatchdogTimeout` -- a supervised step exceeded its deadline
  (the cause the serving step watchdog attaches; the compression engine
  answers a hung slot by kill + respawn and never raises it).
- :class:`PoolExhausted` -- the engine's respawn budget is spent; the
  caller should degrade to a cheaper backend, not keep respawning.
- :class:`RobustnessWarning` -- the warning category for every
  survivable degradation (quarantine, backend demotion).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from typing import ClassVar, Sequence

FAULT_KINDS = ("kill", "hang", "delay", "transient", "corrupt_delta", "drop_shm")
"""Injectable fault classes: hard-kill the worker mid-task, hang it past
the watchdog deadline, delay it within the deadline, raise a retryable
worker exception, corrupt a shipped ``LayerDelta`` payload, or unlink a
layer's shared-memory block out from under the engine."""

WORKER_FAULT_KINDS = ("kill", "hang", "delay", "transient")
"""The subset of :data:`FAULT_KINDS` executed *inside* a pool worker via
a shipped :class:`FaultDirective`; the rest are applied parent-side."""


class RobustnessWarning(RuntimeWarning):
    """A survivable degradation: quarantine, demotion, or respawn storm.

    Emitted (never raised) whenever the engine trades performance for
    forward progress -- a layer quarantined to in-parent execution, the
    process backend demoted to thread or serial -- so operators see the
    event without the run failing.
    """


class TransientWorkerError(RuntimeError):
    """A worker-side failure that is expected to succeed on retry.

    The parent retries the slot with exponential backoff instead of
    respawning it; the fault injector raises this to exercise that path,
    and real worker code may raise it for genuinely transient conditions
    (e.g. a racy resource briefly unavailable).
    """

    def __init__(self, layer: str | None = None, detail: str = "injected"):
        super().__init__(
            f"transient worker failure ({detail})"
            + (f" on layer {layer!r}" if layer else "")
        )
        self.layer = layer
        self.detail = detail

    def __reduce__(self):
        """Pickle by field so the executor can ship the error home."""
        return (type(self), (self.layer, self.detail))


class CorruptPayload(RuntimeError):
    """A shipped payload failed its integrity digest in the worker.

    Raised worker-side when a :class:`~repro.core.procpool.LayerDelta`'s
    blake2b digest does not match its content -- bit-rot, a truncated
    pickle, or the fault injector.  The parent recovers exactly like a
    stale cache: re-ship the slot's layers as full tasks, no respawn.
    """

    def __init__(self, layer: str, detail: str = "digest mismatch"):
        super().__init__(f"corrupt payload for layer {layer!r}: {detail}")
        self.layer = layer
        self.detail = detail

    def __reduce__(self):
        """Pickle by field so the executor can ship the error home."""
        return (type(self), (self.layer, self.detail))


class WatchdogTimeout(RuntimeError):
    """A supervised step exceeded its deadline and its loop was revoked."""


class PoolExhausted(RuntimeError):
    """The engine's worker-respawn budget (``max_pool_respawns``) is spent.

    Raised instead of respawning yet another worker; the
    :class:`~repro.core.compressor.ModelCompressor` reacts by demoting
    the backend down the degradation ladder (process -> thread -> serial)
    rather than failing the run.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: ``kind`` at ``(sweep, layer)``, fired ``times`` times.

    ``sweep`` counts the engine's sweeps 1-based (each ``refine_all`` /
    ``precluster`` / ``finalize`` call is one sweep).  ``layer=None``
    resolves to a deterministic seeded pick from that sweep's layer list;
    ``op`` restricts the fault to one sweep op (``None`` matches any).
    ``times > 1`` re-fires on retries -- e.g. a ``transient`` with
    ``times`` above the engine's retry budget forces the quarantine path.
    ``seconds`` parameterizes ``delay``/``hang`` durations.
    """

    #: The kinds a spec of this class may arm.  Subclasses (the serving
    #: fault layer in :mod:`repro.serving.faults`) override this to extend
    #: the taxonomy while reusing the seeded-determinism machinery.
    VALID_KINDS: ClassVar[tuple[str, ...]] = FAULT_KINDS

    kind: str
    sweep: int = 1
    layer: str | None = None
    op: str | None = None
    times: int = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        kinds = type(self).VALID_KINDS
        if self.kind not in kinds:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {kinds}"
            )
        if self.sweep < 1:
            raise ValueError(f"sweep is 1-based, got {self.sweep}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class FaultPlan:
    """A seedable, deterministic set of :class:`FaultSpec` injections.

    Attach to ``CompressorConfig.fault_plan`` to arm the engine's
    injector.  The plan is immutable; the injector tracks firing state.
    """

    #: The spec class :meth:`single` constructs; subclasses pair with
    #: their own :class:`FaultSpec` subclass.
    SPEC_CLASS: ClassVar[type] = FaultSpec

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any sequence for ergonomics, store a tuple for hashing.
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def single(cls, kind: str, sweep: int = 1, **kwargs) -> "FaultPlan":
        """A one-spec plan -- the common chaos-benchmark shape."""
        return cls(specs=(cls.SPEC_CLASS(kind=kind, sweep=sweep, **kwargs),))


@dataclass(frozen=True)
class FaultDirective:
    """The picklable worker-side payload of one injection.

    Shipped on a :class:`~repro.core.procpool.LayerTask` /
    :class:`~repro.core.procpool.LayerDelta`'s ``fault`` field and
    executed by :func:`apply_directive` in the worker just before the
    sweep op runs ("mid-task": after install/resume, before compute).
    """

    kind: str
    layer: str
    seconds: float = 0.0


@dataclass
class FaultEvent:
    """One injection, as recorded by the :class:`FaultLog`."""

    sweep: int
    layer: str
    op: str
    kind: str
    detail: str = ""


class FaultLog:
    """Append-only record of every injection the injector performed.

    The chaos benchmark reconciles this log against the recoveries it
    observed (respawns, re-ships, retries): every logged fault must have
    been survived, and no unlogged fault may have occurred.
    """

    def __init__(self) -> None:
        self.events: list[FaultEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def record(self, event: FaultEvent) -> None:
        """Append one injection."""
        self.events.append(event)

    def count(self, kind: str | None = None) -> int:
        """Number of recorded injections, optionally filtered by kind."""
        if kind is None:
            return len(self.events)
        return sum(1 for event in self.events if event.kind == kind)

    def to_json_dicts(self) -> list[dict]:
        """The events as JSON-serializable dicts (benchmark artifact)."""
        return [
            {
                "sweep": e.sweep,
                "layer": e.layer,
                "op": e.op,
                "kind": e.kind,
                "detail": e.detail,
            }
            for e in self.events
        ]


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
    """Stateful executor of a :class:`FaultPlan` (one per engine).

    Driven by the process engine: :meth:`begin_sweep` advances the sweep
    counter and resolves ``layer=None`` specs against the sweep's layer
    list; :meth:`fire` answers "does ``kind`` fire for (layer, op) right
    now?", consuming one of the spec's ``times`` and logging the event
    when it does; :meth:`worker_directive` packages the worker-side kinds
    into a shippable :class:`FaultDirective`.  All methods are parent-side
    and single-threaded (the engine submits batches from one thread).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.log = FaultLog()
        self._sweep = 0
        self._op = ""
        self._fired: dict[int, int] = {}
        self._resolved: dict[int, str] = {}

    @classmethod
    def from_plan(cls, plan: "FaultPlan | None") -> "FaultInjector | None":
        """An injector for ``plan``, or ``None`` for a fault-free engine."""
        return None if plan is None else cls(plan)

    def begin_sweep(self, sweep: int, names: Sequence[str], op: str) -> None:
        """Arm the injector for one engine sweep over ``names``."""
        self._sweep = sweep
        self._op = op
        self._resolved = {}
        for index, spec in enumerate(self.plan.specs):
            if spec.sweep != sweep:
                continue
            if spec.layer is not None:
                self._resolved[index] = spec.layer
            elif names:
                self._resolved[index] = names[
                    _seeded_index(self.plan.seed, index, sweep, len(names))
                ]

    def fire(self, kind: str, layer: str, detail: str = "") -> FaultSpec | None:
        """Consume and log a matching armed spec, or return ``None``.

        A spec matches when its kind, sweep, (resolved) layer, and op all
        agree and it has firings left.  At most one spec fires per call.
        """
        for index, spec in enumerate(self.plan.specs):
            if spec.kind != kind or spec.sweep != self._sweep:
                continue
            if self._resolved.get(index) != layer:
                continue
            if spec.op is not None and spec.op != self._op:
                continue
            if self._fired.get(index, 0) >= spec.times:
                continue
            self._fired[index] = self._fired.get(index, 0) + 1
            self.log.record(
                FaultEvent(
                    sweep=self._sweep,
                    layer=layer,
                    op=self._op,
                    kind=kind,
                    detail=detail or self._describe(spec),
                )
            )
            return spec
        return None

    def worker_directive(self, layer: str) -> FaultDirective | None:
        """The worker-side directive firing for ``layer`` now, if any."""
        for kind in WORKER_FAULT_KINDS:
            spec = self.fire(kind, layer)
            if spec is not None:
                return FaultDirective(kind=kind, layer=layer, seconds=spec.seconds)
        return None

    @staticmethod
    def _describe(spec: FaultSpec) -> str:
        if spec.kind in ("hang", "delay"):
            return f"{spec.seconds}s"
        return f"firing {spec.times} time(s)"


def apply_directive(directive: "FaultDirective | None") -> None:
    """Execute a shipped fault directive inside a pool worker.

    Called by the worker entry points just before the sweep op runs.
    ``kill`` exits the interpreter without cleanup (``os._exit`` -- the
    closest stand-in for a segfault or an OOM-killer SIGKILL); ``hang``
    and ``delay`` sleep (``hang`` is simply a sleep the plan sized past
    the watchdog deadline, so the parent puts the worker down mid-nap);
    ``transient`` raises :class:`TransientWorkerError`.
    """
    if directive is None:
        return
    if directive.kind == "kill":
        os._exit(13)
    elif directive.kind in ("hang", "delay"):
        time.sleep(directive.seconds)
    elif directive.kind == "transient":
        raise TransientWorkerError(directive.layer)
    else:  # pragma: no cover - plan validation keeps this unreachable
        raise ValueError(f"directive kind {directive.kind!r} is not worker-side")


def corrupted_state(state):
    """A corrupted deep copy of a :class:`~repro.core.dkm.ClusterState`.

    Used by the engine's ``corrupt_delta`` injection: the *copy* is
    perturbed (first centroid bit-flipped via negation + offset) so the
    parent's live state is never touched -- the corruption must exist
    only on the wire, where the digest check catches it.
    """
    if state is None:
        return None
    corrupted = replace(state, centroids=state.centroids.copy())
    if corrupted.centroids.size:
        corrupted.centroids[0] = -corrupted.centroids[0] + 1.0
    return corrupted


__all__ = [
    "FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "CorruptPayload",
    "FaultDirective",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "PoolExhausted",
    "RobustnessWarning",
    "TransientWorkerError",
    "WatchdogTimeout",
    "apply_directive",
    "corrupted_state",
]
