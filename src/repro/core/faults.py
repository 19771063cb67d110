"""Deterministic fault injection for the compression engine and the server.

A days-long train-time clustering run will see worker crashes, hangs,
corrupted payloads, and externally-reaped ``/dev/shm`` segments long
before it sees an OOM; a server will see a palette kernel raise, a
cached tile rot, and a decode step wedge.  The recovery paths --
watchdog respawn, bounded retry, poison-layer quarantine, shm re-export,
checkpoint/resume, process -> serial degradation, the serving crash
boundary and circuit breaker (see ``docs/robustness.md``) -- are only
trustworthy if every one of them can be triggered *on demand*, at a
chosen point, repeatably.  This module is that trigger, for both engines.

A :class:`FaultPlan` names the injections: each :class:`FaultSpec` arms
one fault ``kind`` at a ``(sweep, layer)`` point (``layer=None`` picks a
layer deterministically from the plan's seed, so "some layer, same one
every run" is expressible without naming layers up front).  The
:data:`FAULT_KINDS` table says which engine injects each kind, what it
targets, and when it fires.  One :class:`FaultInjector` serves both
engines.  :class:`~repro.core.procpool.ProcessLayerEngine` asks it, per
layer and sweep, whether a fault fires *here*: worker-side kinds ride
the shipped task as a picklable :class:`FaultDirective` (the worker
executes it via :func:`apply_directive` -- killing itself, sleeping, or
raising), parent-side kinds (payload corruption, shm drop) are applied
by the engine before the task ships.
:class:`~repro.serving.server.PaletteServer` asks it, per decode step,
from its palette kernel hook, its tile cache, and its step loop.  Every
injection is recorded in a :class:`FaultLog`, which the chaos benchmarks
(``python -m repro.bench faults serving_faults``) cross-check against
the recoveries they observed.

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
  caller should degrade to the serial loop, not keep respawning.
- :class:`RobustnessWarning` -- the warning category for every
  survivable degradation (quarantine, process -> serial demotion).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from typing import Sequence

FAULT_KINDS = {
    # kind            engine         scope     fires
    "kill":           ("compression", "worker", "at"),
    "hang":           ("compression", "worker", "at"),
    "delay":          ("compression", "worker", "at"),
    "transient":      ("compression", "worker", "at"),
    "corrupt_delta":  ("compression", "parent", "at"),
    "drop_shm":       ("compression", "parent", "at"),
    "kernel_error":   ("serving",     "layer",  "from"),
    "corrupt_tile":   ("serving",     "layer",  "from"),
    "hang_step":      ("serving",     "step",   "from"),
    "delay_step":     ("serving",     "step",   "from"),
    "transient_step": ("serving",     "step",   "from"),
}  # fmt: skip
"""Every injectable fault, as ``kind -> (engine, scope, fires)``.

``engine`` names the config that may arm the kind (``"compression"``:
``CompressorConfig``; ``"serving"``: ``ServingConfig``).  ``scope`` is
what a spec targets: ``"worker"`` kinds run inside a pool worker via a
shipped :class:`FaultDirective` (hard-kill it, hang it past the
watchdog, delay it within the deadline, raise a retryable error);
``"parent"`` kinds are applied by the engine to a layer's outbound task
(corrupt a shipped ``LayerDelta``, unlink the layer's shm block);
``"layer"`` kinds hit one served layer (raise from its palette kernel,
poison one of its cached tiles); ``"step"`` kinds hit the decode step
itself (:data:`STEP_TARGET`: hang, delay, or raise a retryable error).
``fires`` is the firing rule: ``"at"`` fires only at the spec's point,
``"from"`` at the first opportunity at or after it -- a ``corrupt_tile``
can only poison a resident tile and a ``kernel_error`` only fires while
its layer's kernel runs, so a serving spec waits for one, while a
compression spec whose sweep has nothing to hit (``corrupt_delta`` on a
cold sweep) is a no-op."""

STEP_TARGET = "<step>"
"""The resolved target of step-scoped specs: the decode step, no layer."""

_NAP_KINDS = ("hang", "delay", "hang_step", "delay_step")
"""Kinds whose ``seconds`` sizes a sleep (logged as the event detail)."""


class RobustnessWarning(RuntimeWarning):
    """A survivable degradation: quarantine, demotion, or respawn storm.

    Emitted (never raised) whenever the engine trades performance for
    forward progress -- a layer quarantined to in-parent execution, the
    process engine demoted to the serial loop -- so operators see the
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
    """The engine's worker-respawn budget (``retry.respawns``) is spent.

    Raised instead of respawning yet another worker; the
    :class:`~repro.core.compressor.ModelCompressor` reacts by demoting
    the run from the process engine to the serial loop rather than
    failing it.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: ``kind`` at point ``sweep``, fired ``times`` times.

    ``sweep`` is 1-based: the compression engine's sweep count (each
    ``refine_all`` / ``precluster`` / ``finalize`` call is one sweep) or
    the server's decode step.  ``layer=None`` resolves to a deterministic
    seeded pick from the point's layer list (step-scoped kinds always
    target :data:`STEP_TARGET`); ``op`` restricts the fault to one sweep
    op (``None`` matches any).  ``times > 1`` re-fires on retries --
    e.g. a ``transient`` with ``times`` above the engine's retry budget
    forces the quarantine path.  ``seconds`` sizes hang/delay naps.
    """

    kind: str
    sweep: int = 1
    layer: str | None = None
    op: str | None = None
    times: int = 1
    seconds: float = 30.0

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
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class FaultPlan:
    """A seedable, deterministic set of :class:`FaultSpec` injections.

    Attach to ``CompressorConfig.fault_plan`` or
    ``ServingConfig.fault_plan`` (each accepts only its own engine's
    kinds, see :func:`check_plan`) to arm that engine's injector.  The
    plan is immutable; the injector tracks firing state.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any sequence for ergonomics, store a tuple for hashing.
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def single(cls, kind: str, sweep: int = 1, **kwargs) -> "FaultPlan":
        """A one-spec plan -- the common chaos-benchmark shape."""
        return cls(specs=(FaultSpec(kind=kind, sweep=sweep, **kwargs),))


def check_plan(plan: "FaultPlan | None", engine: str) -> None:
    """Validate a config's ``fault_plan`` for one :data:`FAULT_KINDS` engine.

    Raises ``ValueError`` naming the kind and both engines when a spec
    belongs to the other engine: no probe of this engine ever asks for
    such a kind, so the plan would be accepted and silently inject
    nothing.
    """
    if plan is None:
        return
    if not isinstance(plan, FaultPlan):
        raise ValueError(
            f"fault_plan must be a FaultPlan or None, got {type(plan).__name__}"
        )
    for spec in plan.specs:
        owner = FAULT_KINDS[spec.kind][0]
        if owner != engine:
            raise ValueError(
                f"fault kind {spec.kind!r} is injected by the {owner} engine; "
                f"a {engine} config cannot arm it"
            )


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
    """Stateful executor of a :class:`FaultPlan` (one per engine or server).

    The caller opens every point with :meth:`begin` -- the process
    engine once per sweep, the server once per decode step -- and asks
    :meth:`fire` whether ``kind`` fires on a target right now; a firing
    consumes one of the spec's ``times`` and is logged.  Retries within
    a point ask again without a new :meth:`begin`, so a spec with
    ``times > 1`` re-fires on them.  Single-threaded by contract: the
    engine submits batches from one thread, and the server's scheduler
    loop owns its injector (a revoked loop never touches it again -- see
    the stale-generation checks in :mod:`repro.serving.server`).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.log = FaultLog()
        self.point = 0
        self._op = ""
        self._fired: dict[int, int] = {}
        self._targets: dict[int, str] = {}

    @classmethod
    def from_plan(cls, plan: "FaultPlan | None") -> "FaultInjector | None":
        """An injector for ``plan``, or ``None`` for a fault-free engine."""
        return None if plan is None else cls(plan)

    def begin(self, point: int, names: Sequence[str], op: str) -> None:
        """Open ``point`` (a sweep or decode step) over the layer ``names``.

        Arms every spec whose firing rule admits ``point`` and resolves
        its target: step-scoped kinds target :data:`STEP_TARGET`, a
        pinned ``layer`` itself, and ``layer=None`` the seeded pick
        ``names[_seeded_index(seed, index, spec.sweep, len(names))]`` --
        the same layer at every point of every run.
        """
        self.point = point
        self._op = op
        self._targets = {}
        for index, spec in enumerate(self.plan.specs):
            _, scope, fires = FAULT_KINDS[spec.kind]
            if spec.sweep > point or (fires == "at" and spec.sweep < point):
                continue
            if scope == "step":
                self._targets[index] = STEP_TARGET
            elif spec.layer is not None:
                self._targets[index] = spec.layer
            elif names:
                self._targets[index] = names[
                    _seeded_index(self.plan.seed, index, spec.sweep, len(names))
                ]

    def fire(self, kind: str, target: str) -> FaultSpec | None:
        """Consume and log a matching armed spec, or return ``None``.

        A spec matches when it is armed at this point with this kind and
        target, its ``op`` (if any) is the point's op, and it has firings
        left.  At most one spec fires per call.
        """
        for index, spec in enumerate(self.plan.specs):
            if spec.kind != kind or self._targets.get(index) != target:
                continue
            if spec.op is not None and spec.op != self._op:
                continue
            fired = self._fired.get(index, 0)
            if fired >= spec.times:
                continue
            self._fired[index] = fired + 1
            self.log.record(
                FaultEvent(
                    sweep=self.point,
                    layer=target,
                    op=self._op,
                    kind=kind,
                    detail=(
                        f"{spec.seconds}s"
                        if kind in _NAP_KINDS
                        else f"firing {spec.times} time(s)"
                    ),
                )
            )
            return spec
        return None


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
    "STEP_TARGET",
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
    "check_plan",
    "corrupted_state",
]
