"""The palette-aware inference server: queue + batcher + palettized layers.

:class:`PaletteServer` is the deployment-shaped front door the north
star names: clients :meth:`PaletteServer.submit` prompts into the
admission-controlled :class:`~repro.serving.queue.RequestQueue`, and
:meth:`ServerRequest.result <repro.serving.queue.ServerRequest.result>`
runs the scheduler on the caller's thread -- each iteration takes queued
requests into the free slots of the
:class:`~repro.serving.batcher.ContinuousBatcher` and runs one decode
step -- until that request resolves.  Eval-mode
:class:`~repro.core.compressor.ClusteredLinear` layers execute through
one resident, CRC-32-checked dequantized weight per layer in the
server's :class:`~repro.serving.palette.TileCache`, and
:meth:`PaletteServer.stats` renders the server's counters into a
:class:`~repro.serving.stats.StatsReport`.  There is no second thread:
a server and its requests are driven from one thread.

- **Crash boundary.**  A decode step that raises fails only that batch's
  requests -- each future gets a typed
  :class:`~repro.serving.queue.StepFailed` -- and the server keeps
  serving.  A :class:`~repro.serving.faults.TransientStepError` -- which
  includes a palette-path error and a weight-checksum failure -- is
  retried in place with bounded backoff first.
- **Lifecycle.**  A server accepts work from construction until
  :meth:`PaletteServer.stop`; ``stop(drain=True)`` first steps until the
  queue and the batch are empty, and ``stop()`` fails whatever is left
  with :class:`~repro.serving.queue.ServerClosed`.  A step that never
  returns cannot be recovered: the caller's ``timeout`` is checked only
  between steps.

Byte accounting convention: :class:`~repro.serving.stats.ServerStats`
counts prompt text bytes at submit and completion text bytes when a
request completes (``activation_bytes``), and the weight bytes each decode
step read (``weight_bytes_read``) -- each clustered layer charges its
palette (lut + indices) on the call that dequantizes it and the resident
float32 weight on every other call.  The server writes nothing to
:mod:`repro.memory.traffic`: no device bytes move while it serves.
"""

from __future__ import annotations

import math
import time

from repro.core.compressor import ClusteredLinear
from repro.llm.tokenizer import WordTokenizer
from repro.nn import Transformer
from repro.serving.batcher import ContinuousBatcher
from repro.serving.config import ServingConfig
from repro.serving.faults import (
    DELAY_STEP_S,
    STEP_TARGET,
    FaultInjector,
    PaletteKernelError,
    TransientStepError,
)
from repro.serving.palette import TileCache
from repro.serving.queue import (
    AdmissionError,
    RequestQueue,
    ServerClosed,
    ServerRequest,
    StepFailed,
)
from repro.serving.stats import ServerStats, StatsReport
from repro.tensor.device import Device

MAX_QUEUE_DEPTH = 64
"""Admission-control bound on *waiting* requests: a submit against a full
queue is rejected at once with :class:`AdmissionError` instead of growing
an unbounded backlog."""

STEP_RETRIES = 2
"""Re-attempts of a decode step that raised :class:`TransientStepError`
(palette-kernel and corrupt-tile errors included) before its batch fails
with :class:`StepFailed`; re-attempt ``n`` first sleeps
``config.backoff_s * 2**(n - 1)``."""


class PaletteServer:
    """Generation server over a (possibly compressed) model.

    The model is switched to eval mode on construction, and every
    :class:`ClusteredLinear` in it is routed to this server's
    :class:`TileCache`; constructing a second server on a model that a
    live server still serves raises ``RuntimeError``.  The server accepts
    work from construction until :meth:`stop`; use it as a context
    manager, or call :meth:`close`.
    """

    def __init__(
        self,
        model: Transformer,
        tokenizer: WordTokenizer,
        config: ServingConfig | None = None,
        device: Device | None = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or ServingConfig()
        self.device = device
        self.stats_acc = ServerStats()
        self.queue = RequestQueue(MAX_QUEUE_DEPTH)
        self.tile_cache = TileCache()
        self.fault_injector = FaultInjector.from_plan(self.config.fault_plan)
        self.batcher = ContinuousBatcher(
            model, tokenizer, self.config, device=device, stats=self.stats_acc
        )
        self._palette_layers: list[tuple[str, ClusteredLinear]] = []
        self._started_at = time.monotonic()
        self._stopped_at: float | None = None
        model.eval()
        self._install_palette()

    # ------------------------------------------------------------------
    # Palette installation
    # ------------------------------------------------------------------

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

    def stop(self, drain: bool = False) -> None:
        """Stop accepting work; fail what is still queued or in flight.

        With ``drain=True`` the server first steps until the queue and the
        batch are empty, so every request resolves on its own.  What is
        left then fails with :class:`ServerClosed`.  Idempotent.
        """
        if self._stopped_at is not None:
            return
        if drain:
            while self._iterate():
                pass
        self._stopped_at = time.monotonic()
        closed = ServerClosed("server stopped before completing this request")
        self.queue.drain(closed)
        self.batcher.abort_all(closed)

    def close(self) -> None:
        """Stop the server and restore the dense eval path."""
        self.stop()
        self._uninstall_palette()

    def __enter__(self) -> "PaletteServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
    ) -> ServerRequest:
        """Enqueue ``prompt``; returns the request future immediately.

        Raises :class:`AdmissionError` when the queue is at
        :data:`MAX_QUEUE_DEPTH`, and :class:`ServerClosed` once the server
        has stopped.  ``deadline_s`` is measured from *submission* and
        covers queue wait plus decoding; it must be finite (``ValueError``
        otherwise), and ``None`` means no deadline.  ``max_new_tokens``
        below 1 raises ``ValueError``; ``None`` means
        ``config.max_new_tokens``.
        """
        if max_new_tokens is None:
            max_new_tokens = self.config.max_new_tokens
        elif max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        if deadline_s is not None and not math.isfinite(deadline_s):
            raise ValueError(
                f"deadline_s must be finite, or None for no deadline, got {deadline_s}"
            )
        if self._stopped_at is not None:
            raise ServerClosed("submit() on a stopped server")
        now = time.monotonic()
        request = ServerRequest(
            prompt,
            max_new_tokens=max_new_tokens,
            deadline=None if deadline_s is None else now + deadline_s,
            now=now,
            drive=self._iterate,
        )
        try:
            self.queue.submit(request)
        except AdmissionError:
            self.stats_acc.note_rejected_admission()
            raise
        self.stats_acc.note_submitted(len(prompt.encode("utf-8")))
        return request

    def generate(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        timeout: float | None = 60.0,
    ) -> str:
        """Submit ``prompt`` and step the server until its text is ready."""
        return self.submit(
            prompt, max_new_tokens=max_new_tokens, deadline_s=deadline_s
        ).result(timeout)

    def stats(self) -> StatsReport:
        """The aggregate report from construction to :meth:`stop` (or now)."""
        end = self._stopped_at if self._stopped_at is not None else time.monotonic()
        return self.stats_acc.report(end - self._started_at)

    # ------------------------------------------------------------------
    # Scheduler (runs on whichever thread waits for a result)
    # ------------------------------------------------------------------

    def _iterate(self) -> bool:
        """One scheduler iteration: fill free slots, then one decode step.

        Returns whether there was anything to do -- a queued request or
        an active row; ``False`` means the server is idle.
        """
        now = time.monotonic()
        batcher = self.batcher
        admitted, expired = self.queue.take(batcher.free_slots, now)
        if expired:
            self.stats_acc.note_rejected_deadline(len(expired))
        for request in admitted:
            self._admit_one(request, now)
        if batcher.active:
            self._run_step()
            return True
        return bool(admitted or expired)

    def _admit_one(self, request: ServerRequest, now: float) -> None:
        """Admit one request; a bad prompt fails only that request."""
        try:
            self.batcher.admit(request, now)
        except Exception as exc:  # noqa: BLE001 - crash boundary
            request.fail(StepFailed(f"admission failed: {exc}", cause=exc), now=now)

    def _run_step(self) -> None:
        """One decode step under the crash boundary.

        Exception taxonomy (see :mod:`repro.serving.faults`): a
        :class:`TransientStepError` -- palette-kernel and corrupt-tile
        errors included (a corrupt weight was already dropped by the CRC-32
        check) -- retries in place with backoff up to :data:`STEP_RETRIES`,
        then fails the batch; anything else fails the batch with
        :class:`StepFailed` at once.  Rows commit only on a step that
        succeeds.
        """
        injector = self.fault_injector
        if injector is not None:
            names = [name for name, _ in self._palette_layers]
            injector.begin(injector.point + 1, names)
        transient_attempts = 0
        while True:
            try:
                self._apply_step_faults(injector)
                before = self._served_bytes()
                self.batcher.step(time.monotonic())
                self.stats_acc.note_weight_bytes(self._served_bytes() - before)
                return
            except TransientStepError as exc:
                transient_attempts += 1
                if transient_attempts > STEP_RETRIES:
                    self._fail_batch(exc)
                    return
                self.stats_acc.note_step_retry()
                time.sleep(self.config.backoff_s * 2 ** (transient_attempts - 1))
            except Exception as exc:  # noqa: BLE001 - crash boundary
                self._fail_batch(exc)
                return

    def _apply_step_faults(self, injector: FaultInjector | None) -> None:
        """Fire armed faults for this step (and its retries).

        A ``corrupt_tile`` fires only on a layer with a resident weight to
        poison, otherwise it stays armed for a later step.
        """
        if injector is None:
            return
        for name, _ in self._palette_layers:
            if self.tile_cache.holds(name) and injector.fire("corrupt_tile", name):
                self.tile_cache.corrupt_one(name)
        if injector.fire("delay_step", STEP_TARGET):
            time.sleep(DELAY_STEP_S)
        if injector.fire("transient_step", STEP_TARGET):
            raise TransientStepError()

    def _fail_batch(self, cause: BaseException) -> None:
        """Crash boundary: fail this batch's futures, keep serving."""
        self.stats_acc.note_step_failure()
        self.batcher.abort_all(
            StepFailed(f"decode step failed: {cause}", cause=cause)
        )

    def _served_bytes(self) -> int:
        """Weight bytes the served layers have read so far.

        A served call that dequantized charges the palette it read (lut +
        indices); every other call charges the resident float32 weight its
        gemm read.
        """
        return sum(module.served_bytes for _, module in self._palette_layers)
