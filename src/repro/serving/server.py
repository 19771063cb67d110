"""The palette-aware inference server: queue + batcher + palettized layers.

:class:`PaletteServer` is the deployment-shaped front door the north
star names: clients :meth:`PaletteServer.submit` prompts from any
thread, a scheduler thread drains the admission-controlled
:class:`~repro.serving.queue.RequestQueue` into the
:class:`~repro.serving.batcher.ContinuousBatcher`, and eval-mode
:class:`~repro.core.compressor.ClusteredLinear` layers execute through
one resident, CRC-32-checked dequantized weight per layer in the
server's :class:`~repro.serving.palette.TileCache`.  Per-request bytes flow
into :mod:`repro.memory.traffic` under ``serve:`` tags, and
:meth:`PaletteServer.stats` renders everything into a
:class:`~repro.serving.stats.StatsReport`.

The scheduler is *supervised*:

- **Crash boundary.**  A decode step that raises fails only that batch's
  requests -- each future gets a typed
  :class:`~repro.serving.queue.StepFailed` -- and the loop keeps
  serving.  A :class:`~repro.serving.faults.TransientStepError` -- which
  includes a palette-path error and a weight-checksum failure -- is
  retried in place with bounded backoff first.
- **Step watchdog.**  With ``config.retry.timeout_s`` set, a sidecar
  thread revokes the loop *generation* of a step that wedges: the stuck
  thread becomes a zombie whose late writes are discarded
  (:class:`ServerRequest` resolution is idempotent; the loop re-checks
  its generation after every sleep), its batch fails with
  ``StepFailed``, and a fresh loop is respawned under a bounded budget.
- **Lifecycle.**  :meth:`stop` joins with a deadline and escalates
  (warn, zombify, fail in-flight) instead of deadlocking on a hung
  step; ``stop(drain=True)`` closes admission and finishes in-flight
  work first; :meth:`health` snapshots loop liveness and queue depth,
  and :meth:`submit` consults it to shed load.

Byte accounting convention: prompt and completion text bytes are
recorded per request (``serve:req<id>`` tags, endpoints
``client <-> server``); weight bytes *read per decode step* are
recorded under ``serve:weights`` with ``dst="flops"`` -- each clustered
layer charges its palette (lut + indices) on the call that dequantizes
it and the resident float32 weight on every other call.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass

from repro.core.compressor import ClusteredLinear
from repro.llm.tokenizer import WordTokenizer
from repro.memory.traffic import TrafficLedger, global_ledger
from repro.nn import Transformer
from repro.serving.batcher import ContinuousBatcher, SequenceState
from repro.serving.config import ServingConfig
from repro.serving.faults import (
    STEP_TARGET,
    FaultInjector,
    PaletteKernelError,
    RobustnessWarning,
    TransientStepError,
    WatchdogTimeout,
)
from repro.serving.palette import TileCache
from repro.serving.queue import (
    AdmissionError,
    RequestQueue,
    ServerClosed,
    ServerRequest,
    StepFailed,
)
from repro.serving.stats import (
    RequestRecord,
    ServerStats,
    StatsReport,
    request_tag,
)
from repro.tensor.device import Device

WEIGHT_TAG = "serve:weights"
"""Ledger tag of per-step weight-read records (``dst="flops"``)."""


class _StaleGeneration(Exception):
    """Internal: this scheduler loop's generation was revoked.

    Raised by :meth:`LoopSupervisor.check` inside a zombie loop (one the
    watchdog killed while it was wedged mid-step).  The loop unwinds
    without touching the server again; a fresh generation owns it now.
    """


@dataclass(frozen=True)
class ServerHealth:
    """Point-in-time server health (the :meth:`PaletteServer.health` shape).

    ``accepting`` is the admission verdict: the server is running, not
    draining, and its loop is not dead.  ``stalled`` means the current
    decode step has already overrun ``retry.timeout_s`` but the watchdog
    has not yet revoked the loop -- :meth:`PaletteServer.submit` sheds
    load during that window instead of queueing behind a wedge.
    """

    running: bool
    accepting: bool
    draining: bool
    dead: bool
    stalled: bool
    generation: int
    loop_alive: bool
    respawns: int
    queue_depth: int
    active_requests: int
    last_step_age_s: float | None
    step_in_flight_s: float | None

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot."""
        return {
            "running": self.running,
            "accepting": self.accepting,
            "draining": self.draining,
            "dead": self.dead,
            "stalled": self.stalled,
            "generation": self.generation,
            "loop_alive": self.loop_alive,
            "respawns": self.respawns,
            "queue_depth": self.queue_depth,
            "active_requests": self.active_requests,
            "last_step_age_s": self.last_step_age_s,
            "step_in_flight_s": self.step_in_flight_s,
        }


class LoopSupervisor:
    """Cross-thread source of truth for the scheduler loop's lifecycle.

    Tracks the loop *generation* (bumped on every watchdog revocation),
    whether a loop is alive, when the in-flight step started, and the
    drain/dead flags.  The scheduler thread calls :meth:`check` after
    every sleep and before touching shared state; once its generation is
    stale the call raises :class:`_StaleGeneration` and the zombie
    unwinds.  The watchdog and :meth:`PaletteServer.stop` are the only
    writers besides the loop itself.  ``_``-prefixed helpers expect the
    caller to hold the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._generation = 0
        self._loop_alive = False
        self._respawns = 0
        self._draining = False
        self._dead = False
        self._step_started_at: float | None = None
        self._last_step_at: float | None = None
        self._batcher: ContinuousBatcher | None = None

    # -- loop side ------------------------------------------------------

    def begin_generation(
        self, batcher: ContinuousBatcher, count_respawn: bool = False
    ) -> int:
        """Register a new loop generation (about to start); returns it."""
        with self._lock:
            self._generation += 1
            self._loop_alive = True
            self._step_started_at = None
            self._batcher = batcher
            if count_respawn:
                self._respawns += 1
            return self._generation

    def check(self, generation: int) -> None:
        """Raise :class:`_StaleGeneration` unless ``generation`` is current."""
        with self._lock:
            if generation != self._generation:
                raise _StaleGeneration(
                    f"loop generation {generation} was revoked "
                    f"(current is {self._generation})"
                )

    def note_step_start(self, generation: int, now: float) -> None:
        """Stamp the in-flight step's start (the watchdog's deadline base)."""
        with self._lock:
            if generation == self._generation:
                self._step_started_at = now

    def note_step_end(self, generation: int, now: float) -> None:
        """Clear the in-flight stamp; remember when a step last finished."""
        with self._lock:
            if generation == self._generation:
                self._step_started_at = None
                self._last_step_at = now

    def note_loop_exit(self, generation: int) -> None:
        """The loop thread is returning (cleanly or revoked)."""
        with self._lock:
            if generation == self._generation:
                self._loop_alive = False
                self._step_started_at = None

    # -- watchdog / stop side -------------------------------------------

    def revoke_hung(
        self, timeout_s: float, now: float
    ) -> "tuple[int, ContinuousBatcher | None] | None":
        """Revoke the current generation if its step overran ``timeout_s``.

        Returns ``(revoked_generation, its_batcher)`` when a hang was
        declared, else ``None``.  The revoked loop's next
        :meth:`check` raises and it unwinds as a zombie.
        """
        with self._lock:
            if not self._loop_alive or self._step_started_at is None:
                return None
            if now - self._step_started_at <= timeout_s:
                return None
            revoked = self._generation
            batcher = self._batcher
            self._generation += 1
            self._loop_alive = False
            self._step_started_at = None
            self._batcher = None
            return revoked, batcher

    def revoke_current(self) -> None:
        """Unconditionally zombify whatever loop is running (stop escalation)."""
        with self._lock:
            self._generation += 1
            self._loop_alive = False
            self._step_started_at = None
            self._batcher = None

    def start_draining(self) -> None:
        """Close admission; the loop exits once queue and batch are empty."""
        with self._lock:
            self._draining = True

    def mark_dead(self) -> None:
        """The respawn budget is spent; no loop will serve again."""
        with self._lock:
            self._dead = True
            self._loop_alive = False

    # -- observers ------------------------------------------------------

    def is_draining(self) -> bool:
        """Whether admission is closed pending a graceful shutdown."""
        with self._lock:
            return self._draining

    def is_dead(self) -> bool:
        """Whether the respawn budget is spent (no loop will serve again)."""
        with self._lock:
            return self._dead

    def respawns_used(self) -> int:
        """Watchdog respawns consumed so far."""
        with self._lock:
            return self._respawns

    def snapshot(self, now: float) -> dict:
        """Raw liveness numbers for :meth:`PaletteServer.health`."""
        with self._lock:
            return {
                "generation": self._generation,
                "loop_alive": self._loop_alive,
                "respawns": self._respawns,
                "draining": self._draining,
                "dead": self._dead,
                "last_step_age_s": (
                    None
                    if self._last_step_at is None
                    else now - self._last_step_at
                ),
                "step_in_flight_s": (
                    None
                    if self._step_started_at is None
                    else now - self._step_started_at
                ),
            }


class PaletteServer:
    """Concurrent generation server over a (possibly compressed) model.

    The model is switched to eval mode on construction, and every
    :class:`ClusteredLinear` in it is routed to this server's
    :class:`TileCache`; constructing a second server on a model that a
    live server still serves raises ``RuntimeError``.
    Use as a context manager, or pair :meth:`start` with :meth:`close`.
    """

    def __init__(
        self,
        model: Transformer,
        tokenizer: WordTokenizer,
        config: ServingConfig | None = None,
        device: Device | None = None,
        ledger: TrafficLedger | None = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or ServingConfig()
        self.device = device
        self.ledger = ledger if ledger is not None else global_ledger()
        self.stats_acc = ServerStats()
        self.queue = RequestQueue(self.config.max_queue_depth)
        self.tile_cache = TileCache()
        self.supervisor = LoopSupervisor()
        self.fault_injector = FaultInjector.from_plan(self.config.fault_plan)
        self.batcher = self._make_batcher()
        self._palette_layers: list[tuple[str, ClusteredLinear]] = []
        self._thread: threading.Thread | None = None
        self._watchdog: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_at: float | None = None
        self._stopped_at: float | None = None
        model.eval()
        self._install_palette()

    # ------------------------------------------------------------------
    # Palette installation
    # ------------------------------------------------------------------

    def _make_batcher(self) -> ContinuousBatcher:
        return ContinuousBatcher(
            self.model,
            self.tokenizer,
            self.config,
            device=self.device,
            stats=self.stats_acc,
            on_retire=self._on_retire,
        )

    def _fault_hook(self):
        return None if self.fault_injector is None else self._kernel_fault

    def _kernel_fault(self, layer: str) -> None:
        """The served layers' ``fault_hook``: raise if a fault fires.

        Runs inside the layer's served call during a decode forward, so
        an injected :class:`PaletteKernelError` originates inside the
        palette path the step's retry covers.
        """
        if self.fault_injector.fire("kernel_error", layer):
            raise PaletteKernelError(layer)

    def _install_palette(self) -> None:
        try:
            for name, module in self.model.named_modules():
                if isinstance(module, ClusteredLinear):
                    module.enable_palette_eval(
                        name=name,
                        cache=self.tile_cache,
                        fault_hook=self._fault_hook(),
                    )
                    self._palette_layers.append((name, module))
        except RuntimeError:
            # Another cache serves a layer: undo the routes set so far.
            self._uninstall_palette()
            raise

    def _uninstall_palette(self) -> None:
        for _, module in self._palette_layers:
            module.disable_palette_eval()
        self._palette_layers = []
        self.tile_cache.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the scheduler thread is alive and accepting work."""
        return (
            self._thread is not None
            and self._thread.is_alive()
            and not self.supervisor.is_dead()
        )

    def start(self) -> "PaletteServer":
        """Start the scheduler thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._started_at = time.monotonic()
        self.stats_acc.started_at = self._started_at
        self._spawn_loop(count_respawn=False)
        if self.config.retry.timeout_s is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="palette-server-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        return self

    def _spawn_loop(self, count_respawn: bool) -> None:
        batcher = self._make_batcher()
        self.batcher = batcher
        generation = self.supervisor.begin_generation(
            batcher, count_respawn=count_respawn
        )
        thread = threading.Thread(
            target=self._scheduler_loop,
            args=(generation, batcher),
            name=f"palette-server-gen{generation}",
            daemon=True,
        )
        self._thread = thread
        thread.start()

    def stop(self, drain: bool = False) -> None:
        """Stop the scheduler; fail queued and in-flight requests.

        With ``drain=True`` admission closes first and the loop is given
        ``config.drain_timeout_s`` to finish queued and in-flight work
        before the hard stop.  The hard stop joins the scheduler thread
        with ``config.join_timeout_s`` and *escalates* on overrun --
        emits a :class:`RobustnessWarning`, revokes the loop generation
        (zombifying the stuck thread), and fails whatever is still in
        flight -- instead of deadlocking the caller.
        """
        if self._thread is None:
            return
        if drain and not self.supervisor.is_dead():
            self.supervisor.start_draining()
            deadline = time.monotonic() + self.config.drain_timeout_s
            while time.monotonic() < deadline:
                thread = self._thread
                if thread is None or not thread.is_alive():
                    break
                thread.join(timeout=0.01)
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=self.config.join_timeout_s)
            if thread.is_alive():
                warnings.warn(
                    "scheduler thread did not exit within join_timeout_s="
                    f"{self.config.join_timeout_s}; revoking its generation "
                    "and failing in-flight requests",
                    RobustnessWarning,
                    stacklevel=2,
                )
                self.supervisor.revoke_current()
        self._thread = None
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.join(timeout=self.config.join_timeout_s)
            self._watchdog = None
        self._stopped_at = time.monotonic()
        self.stats_acc.stopped_at = self._stopped_at
        closed = ServerClosed("server stopped before completing this request")
        for request in self.queue.drain(closed):
            self.stats_acc.note_finished(RequestRecord.from_request(request, 0))
        self._fail_active(self.batcher, closed)

    def close(self) -> None:
        """Stop the server and restore the dense eval path."""
        self.stop()
        self._uninstall_palette()

    def __enter__(self) -> "PaletteServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def health(self) -> ServerHealth:
        """Liveness snapshot: loop generation, liveness, queue depth.

        Cheap enough to call per-submit; :meth:`submit` uses it to shed
        load (``stalled``) and refuse dead or draining servers.
        """
        now = time.monotonic()
        snap = self.supervisor.snapshot(now)
        thread = self._thread
        running = (
            thread is not None and thread.is_alive() and not snap["dead"]
        )
        in_flight = snap["step_in_flight_s"]
        timeout = self.config.retry.timeout_s
        stalled = timeout is not None and in_flight is not None and in_flight > timeout
        return ServerHealth(
            running=running,
            accepting=running and not snap["draining"] and not snap["dead"],
            draining=snap["draining"],
            dead=snap["dead"],
            stalled=stalled,
            generation=snap["generation"],
            loop_alive=snap["loop_alive"],
            respawns=snap["respawns"],
            queue_depth=len(self.queue),
            active_requests=len(self.batcher.active),
            last_step_age_s=snap["last_step_age_s"],
            step_in_flight_s=in_flight,
        )

    def submit(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
    ) -> ServerRequest:
        """Enqueue ``prompt``; returns the request future immediately.

        Raises :class:`AdmissionError` when the queue is at
        ``max_queue_depth`` *or* the current decode step has overrun the
        watchdog deadline (shedding load behind a wedge), and
        :class:`ServerClosed` when the server is not running, draining,
        or its scheduler loop is dead.  ``deadline_s`` is measured from
        *submission* and covers queue wait plus decoding; ``None`` means
        no deadline.  ``max_new_tokens`` below 1 raises ``ValueError``;
        ``None`` means ``config.max_new_tokens``.
        """
        if max_new_tokens is None:
            max_new_tokens = self.config.max_new_tokens
        elif max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        health = self.health()
        if not health.running:
            raise ServerClosed("submit() on a server that is not running")
        if health.dead:
            raise ServerClosed(
                "submit() on a server whose scheduler loop is dead "
                "(respawn budget exhausted)"
            )
        if health.draining:
            raise ServerClosed("submit() on a draining server")
        if health.stalled:
            self.stats_acc.note_rejected_admission()
            raise AdmissionError(
                "decode step overran retry.timeout_s and the loop is not yet "
                "respawned; shedding load"
            )
        now = time.monotonic()
        request = ServerRequest(
            prompt,
            max_new_tokens=max_new_tokens,
            deadline=None if deadline_s is None else now + deadline_s,
            now=now,
        )
        try:
            self.queue.submit(request)
        except AdmissionError:
            self.stats_acc.note_rejected_admission()
            raise
        self.stats_acc.note_submitted()
        self._record(
            "client", "server", len(prompt.encode("utf-8")), request_tag(request.id)
        )
        return request

    def generate(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        timeout: float | None = 60.0,
    ) -> str:
        """Submit ``prompt`` and block for its completion text."""
        return self.submit(
            prompt, max_new_tokens=max_new_tokens, deadline_s=deadline_s
        ).result(timeout)

    def stats(self) -> StatsReport:
        """The aggregate report over the server's running window so far."""
        if self._started_at is None:
            wall = 0.0
        else:
            end = self._stopped_at if self._stopped_at is not None else time.monotonic()
            wall = end - self._started_at
        return self.stats_acc.report(wall)

    # ------------------------------------------------------------------
    # Scheduler (one thread per loop generation)
    # ------------------------------------------------------------------

    def _scheduler_loop(
        self, generation: int, batcher: ContinuousBatcher
    ) -> None:
        """One loop generation.  ``batcher`` is generation-local: a
        revoked (zombie) loop must never touch ``self.batcher``, which a
        fresh generation may own by the time the zombie wakes up.
        """
        try:
            while not self._stop.is_set():
                self.supervisor.check(generation)
                now = time.monotonic()
                free = batcher.free_slots
                if free > 0:
                    admitted, expired = self.queue.take(free, now)
                    if expired:
                        self.stats_acc.note_rejected_deadline(len(expired))
                        for request in expired:
                            self.stats_acc.note_finished(
                                RequestRecord.from_request(request, 0)
                            )
                    for request in admitted:
                        self._admit_one(batcher, request, now)
                if batcher.active:
                    self._run_step(generation, batcher)
                elif self.supervisor.is_draining() and len(self.queue) == 0:
                    return  # drained: nothing in flight, nothing queued
                else:
                    self.queue.wait_nonempty(self.config.poll_interval_s)
        except _StaleGeneration:
            return  # revoked by the watchdog; a fresh loop owns the server
        finally:
            self.supervisor.note_loop_exit(generation)

    def _admit_one(
        self,
        batcher: ContinuousBatcher,
        request: ServerRequest,
        now: float,
    ) -> None:
        """Admit one request; a bad prompt fails only that request."""
        try:
            batcher.admit(request, now)
        except Exception as exc:  # noqa: BLE001 - crash boundary
            if request.fail(
                StepFailed(f"admission failed: {exc}", cause=exc), now=now
            ):
                self.stats_acc.note_finished(
                    RequestRecord.from_request(request, 0)
                )

    def _run_step(self, generation: int, batcher: ContinuousBatcher) -> None:
        """One supervised decode step: the crash boundary.

        Exception taxonomy (see :mod:`repro.serving.faults`): a
        :class:`TransientStepError` -- palette-kernel and corrupt-tile
        errors included (a corrupt weight was already dropped by the CRC-32
        check) -- retries in place with backoff up to ``retry.retries``,
        then fails the batch; anything else fails the batch with
        :class:`StepFailed` at once.
        """
        injector = self.fault_injector
        if injector is not None:
            names = [name for name, _ in self._palette_layers]
            injector.begin(injector.point + 1, names, "decode")
        self.supervisor.note_step_start(generation, time.monotonic())
        transient_attempts = 0
        try:
            while True:
                self.supervisor.check(generation)
                try:
                    self._apply_step_faults(generation, injector)
                    before = self._served_bytes()
                    batcher.step(time.monotonic())
                    # A zombie waking from a genuine in-step hang must not
                    # ledger bytes.
                    self.supervisor.check(generation)
                    self._record_step_weights(before)
                    return
                except _StaleGeneration:
                    raise
                except TransientStepError as exc:
                    transient_attempts += 1
                    if transient_attempts > self.config.retry.retries:
                        self._fail_batch(batcher, exc)
                        return
                    self.stats_acc.note_step_retry()
                    self._sleep_checked(
                        generation, self.config.retry.backoff(transient_attempts)
                    )
                except Exception as exc:  # noqa: BLE001 - crash boundary
                    self._fail_batch(batcher, exc)
                    return
        finally:
            self.supervisor.note_step_end(generation, time.monotonic())

    def _apply_step_faults(
        self, generation: int, injector: FaultInjector | None
    ) -> None:
        """Fire armed faults for this step (and its retries).

        A ``corrupt_tile`` fires only on a layer with a resident weight to
        poison, otherwise it stays armed for a later step; a
        ``hang_step`` is simply a nap the plan sized past the watchdog
        deadline, so the supervisor revokes the loop mid-sleep.
        """
        if injector is None:
            return
        for name, _ in self._palette_layers:
            if self.tile_cache.holds(name) and injector.fire("corrupt_tile", name):
                self.tile_cache.corrupt_one(name)
        for kind in ("hang_step", "delay_step"):
            spec = injector.fire(kind, STEP_TARGET)
            if spec is not None:
                self._sleep_checked(generation, spec.seconds)
        if injector.fire("transient_step", STEP_TARGET):
            raise TransientStepError()

    def _sleep_checked(self, generation: int, seconds: float) -> None:
        """Sleep in small slices, aborting the moment this loop is revoked.

        This is how a watchdog "kills" a hung step: Python threads
        cannot be interrupted, so the revoked loop discovers its own
        death at the next slice boundary and unwinds as a zombie.
        """
        deadline = time.monotonic() + seconds
        while True:
            self.supervisor.check(generation)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.01))

    def _fail_batch(
        self, batcher: ContinuousBatcher, cause: BaseException
    ) -> None:
        """Crash boundary: fail this batch's futures, keep the loop alive."""
        self.stats_acc.note_step_failure()
        batcher.abort_all(
            StepFailed(f"decode step failed: {cause}", cause=cause)
        )

    # ------------------------------------------------------------------
    # Watchdog (sidecar thread)
    # ------------------------------------------------------------------

    def _watchdog_loop(self) -> None:
        timeout = self.config.retry.timeout_s
        assert timeout is not None
        interval = max(0.002, min(timeout / 4, 0.05))
        while not self._stop.is_set():
            hung = self.supervisor.revoke_hung(timeout, time.monotonic())
            if hung is not None:
                _, batcher = hung
                self._handle_hang(batcher)
            self._stop.wait(interval)

    def _handle_hang(self, batcher: ContinuousBatcher | None) -> None:
        """A step overran its deadline: fail its batch, respawn or die."""
        self.stats_acc.note_watchdog_kill()
        error = StepFailed(
            "decode step exceeded "
            f"retry.timeout_s={self.config.retry.timeout_s}; loop revoked",
            cause=WatchdogTimeout("serving step watchdog fired"),
        )
        if (
            self._stop.is_set()
            or self.supervisor.respawns_used() >= self.config.retry.respawns
        ):
            self.supervisor.mark_dead()
            if batcher is not None:
                self._fail_active(batcher, error)
            closed = ServerClosed(
                "scheduler loop dead: watchdog respawn budget exhausted"
            )
            for request in self.queue.drain(closed):
                self.stats_acc.note_finished(
                    RequestRecord.from_request(request, 0)
                )
            return
        self.stats_acc.note_loop_respawn()
        warnings.warn(
            "scheduler loop revoked by the step watchdog; respawning "
            f"({self.supervisor.respawns_used() + 1}/"
            f"{self.config.retry.respawns})",
            RobustnessWarning,
            stacklevel=2,
        )
        self._spawn_loop(count_respawn=True)
        # Fail the orphaned futures only after the fresh loop is
        # installed: a client that wakes on StepFailed and immediately
        # resubmits must never observe the gap between the zombie
        # exiting and the respawn (running would read False).
        if batcher is not None:
            self._fail_active(batcher, error)

    def _fail_active(
        self, batcher: ContinuousBatcher, error: BaseException
    ) -> None:
        """Fail a batcher's in-flight futures without mutating its batch.

        Used from *other* threads (watchdog, :meth:`stop` escalation)
        while the owning loop may still be wedged mid-step: resolution
        is idempotent, so whichever side lands first wins, and the
        zombie's late writes go nowhere -- its sequences' K/V caches are
        released here and belong to no other generation.
        """
        batcher.release_kv()
        for seq in list(batcher.active):
            if seq.request.fail(error):
                self.stats_acc.note_finished(
                    RequestRecord.from_request(seq.request, seq.prompt_tokens)
                )

    # ------------------------------------------------------------------
    # Byte accounting
    # ------------------------------------------------------------------

    def _record(self, src: str, dst: str, nbytes: int, tag: str) -> None:
        """Ledger one transfer and count it in this server's stats."""
        self.ledger.record(src, dst, nbytes, tag=tag)
        self.stats_acc.note_bytes(nbytes, weights=dst == "flops")

    def _on_retire(self, seq: SequenceState) -> None:
        """Ledger the completion bytes of a retired sequence."""
        text = "" if seq.request.error is not None else self.tokenizer.decode(
            seq.generated
        )
        self._record(
            "server", "client", len(text.encode("utf-8")), request_tag(seq.request.id)
        )

    def _served_bytes(self) -> int:
        """Weight bytes the served layers have read so far."""
        return sum(module.served_bytes for _, module in self._palette_layers)

    def _record_step_weights(self, before: int) -> None:
        """Ledger the weight bytes one decode step read.

        A served call that dequantized charges the palette it read (lut +
        indices); every other call charges the resident float32 weight its
        gemm read.
        """
        nbytes = self._served_bytes() - before
        if nbytes:
            self._record("weights", "flops", nbytes, WEIGHT_TAG)
