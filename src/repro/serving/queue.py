"""Admission-controlled request queue for the serving engine.

The queue is the server's pressure-relief valve: depth is bounded
(:data:`repro.serving.server.MAX_QUEUE_DEPTH`), so a traffic burst beyond
what the batcher can drain is *rejected at submit time* with
:class:`AdmissionError` instead of growing an unbounded backlog, and a
request whose deadline has already passed when the scheduler reaches it
is rejected with :class:`DeadlineExceeded` rather than wasting decode
steps on an answer nobody is waiting for.  Both are the "admission
control" half of continuous batching; the batching half lives in
:mod:`repro.serving.batcher`.

Clients talk to the queue through :class:`ServerRequest` -- a
future-like handle whose :meth:`ServerRequest.result` blocks until the
scheduler thread completes or fails the request.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque


class ServingError(RuntimeError):
    """Base class of serving-layer failures."""


class AdmissionError(ServingError):
    """Submit rejected: the bounded request queue is full."""


class DeadlineExceeded(ServingError):
    """Request rejected or aborted: its completion deadline passed."""


class ServerClosed(ServingError):
    """Request failed: the server shut down before completing it."""


class StepFailed(ServingError):
    """Request failed: its decode step could not be completed.

    The typed error the supervised scheduler delivers through every
    future of a batch whose step raised, hung past the step watchdog, or
    exhausted its retries -- the crash boundary that keeps one bad step
    from stranding callers until their own timeouts.  ``cause`` carries
    the underlying failure (an exception instance, never re-raised).
    """

    def __init__(self, detail: str, cause: BaseException | None = None):
        super().__init__(detail)
        self.cause = cause


_REQUEST_IDS = itertools.count()


class ServerRequest:
    """One in-flight generation request (a thread-safe future).

    Timing fields are monotonic-clock stamps filled in by the pipeline:
    ``submitted_at`` at submit, ``scheduled_at`` when the batcher admits
    the request into the running batch, ``finished_at`` on completion or
    failure.  ``deadline`` is absolute (monotonic) or ``None``.

    Resolution is **idempotent**: the first :meth:`complete` or
    :meth:`fail` wins and every later attempt is a no-op returning
    ``False``.  The supervised scheduler relies on this -- a step
    watchdog may fail a batch's requests while a revoked (zombie) loop
    is still mid-step; whichever resolution lands first is the one the
    client sees, and stats are only recorded by the caller whose
    resolution actually took.
    """

    def __init__(
        self,
        prompt: str,
        max_new_tokens: int,
        deadline: float | None = None,
        now: float | None = None,
    ) -> None:
        self.id = next(_REQUEST_IDS)
        self.prompt = prompt
        self.max_new_tokens = max_new_tokens
        self.deadline = deadline
        self.submitted_at = time.monotonic() if now is None else now
        self.scheduled_at: float | None = None
        self.finished_at: float | None = None
        self.tokens_generated = 0
        self._lock = threading.Lock()
        # The completion latch is itself a synchronization primitive;
        # waiting on it under the state lock would deadlock resolution.
        self._event = threading.Event()  # repolint: disable=RL101 Event is thread-safe; waited on outside the lock by design
        self._resolved = False
        self._text: str | None = None
        self._error: BaseException | None = None

    # ------------------------------------------------------------------
    # Completion (scheduler side)
    # ------------------------------------------------------------------

    def complete(self, text: str, now: float | None = None) -> bool:
        """Resolve the request with generated ``text``.

        Returns whether *this* call resolved the request; ``False`` means
        it was already resolved (the caller must not record stats or
        ledger bytes for it again).
        """
        with self._lock:
            if self._resolved:
                return False
            self._resolved = True
            self._text = text
            self.finished_at = time.monotonic() if now is None else now
        self._event.set()
        return True

    def fail(self, error: BaseException, now: float | None = None) -> bool:
        """Resolve the request with ``error`` (raised from :meth:`result`).

        Idempotent like :meth:`complete`; returns whether this call won.
        """
        with self._lock:
            if self._resolved:
                return False
            self._resolved = True
            self._error = error
            self.finished_at = time.monotonic() if now is None else now
        self._event.set()
        return True

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the request has resolved (successfully or not)."""
        return self._event.is_set()

    @property
    def ok(self) -> bool:
        """Whether the request resolved successfully."""
        with self._lock:
            return self._resolved and self._error is None

    @property
    def error(self) -> BaseException | None:
        """The failure, if the request resolved unsuccessfully."""
        with self._lock:
            return self._error

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed as of monotonic time ``now``."""
        return self.deadline is not None and now > self.deadline

    def result(self, timeout: float | None = None) -> str:
        """Block until resolved; return the generated text or raise.

        Raises ``TimeoutError`` if the request is still in flight after
        ``timeout`` seconds, or the failure the scheduler recorded
        (:class:`DeadlineExceeded`, :class:`ServerClosed`,
        :class:`StepFailed`, ...).
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.id} still in flight after {timeout}s"
            )
        with self._lock:
            error = self._error
            text = self._text
        if error is not None:
            raise error
        assert text is not None
        return text

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"ServerRequest(id={self.id}, {state}, prompt={self.prompt!r})"


class RequestQueue:
    """Bounded FIFO of pending :class:`ServerRequest` with admission control."""

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._pending: deque[ServerRequest] = deque()

    def submit(self, request: ServerRequest) -> ServerRequest:
        """Enqueue ``request`` or raise :class:`AdmissionError` when full."""
        with self._lock:
            if len(self._pending) >= self.max_depth:
                raise AdmissionError(
                    f"queue full ({self.max_depth} pending); request rejected"
                )
            self._pending.append(request)
            self._nonempty.notify()
        return request

    def take(self, limit: int, now: float) -> tuple[list[ServerRequest], list[ServerRequest]]:
        """Pop up to ``limit`` schedulable requests.

        Returns ``(admitted, expired)``: requests whose deadline already
        passed are popped, failed with :class:`DeadlineExceeded`, and
        returned separately -- they never consume a batch slot.
        """
        admitted: list[ServerRequest] = []
        expired: list[ServerRequest] = []
        with self._lock:
            while self._pending and len(admitted) < limit:
                request = self._pending.popleft()
                if request.expired(now):
                    expired.append(request)
                    continue
                admitted.append(request)
        for request in expired:
            request.fail(
                DeadlineExceeded(
                    f"request {request.id} missed its deadline while queued"
                ),
                now=now,
            )
        return admitted, expired

    def drain(self, error: BaseException) -> list[ServerRequest]:
        """Fail every pending request with ``error`` (server shutdown)."""
        with self._lock:
            drained = list(self._pending)
            self._pending.clear()
        for request in drained:
            request.fail(error)
        return drained

    def wait_nonempty(self, timeout: float, stop: threading.Event) -> bool:
        """Block up to ``timeout`` seconds for a pending request or ``stop``.

        ``stop`` is read under the queue's lock, so a :meth:`wake` that
        follows ``stop.set()`` cannot slip between the check and the wait.
        """
        with self._nonempty:
            return self._nonempty.wait_for(
                lambda: bool(self._pending) or stop.is_set(), timeout
            )

    def wake(self) -> None:
        """Wake every :meth:`wait_nonempty` caller to re-check its ``stop``."""
        with self._nonempty:
            self._nonempty.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)
