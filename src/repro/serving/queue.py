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
future-like handle whose :meth:`ServerRequest.result` runs the server's
scheduler on the caller's thread until the request resolves.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Callable


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

    The typed error the scheduler delivers through every future of a
    batch whose step raised or exhausted its retries -- the crash
    boundary that keeps one bad step from stranding its callers.
    ``cause`` carries the underlying failure (an exception instance,
    never re-raised).
    """

    def __init__(self, detail: str, cause: BaseException | None = None):
        super().__init__(detail)
        self.cause = cause


_REQUEST_IDS = itertools.count()


class ServerRequest:
    """One in-flight generation request (a future).

    Timing fields are monotonic-clock stamps filled in by the pipeline:
    ``submitted_at`` at submit, ``scheduled_at`` when the batcher admits
    the request into the running batch, ``finished_at`` on completion or
    failure.  ``deadline`` is absolute (monotonic) or ``None``.

    ``drive`` is the server's scheduler iteration: :meth:`result` calls it
    until the request resolves.  A request built without one (tests) can
    only be resolved by hand.

    Resolution is **idempotent**: the first :meth:`complete` or
    :meth:`fail` wins and every later attempt is a no-op returning
    ``False``, so stats are only recorded by the caller whose resolution
    actually took.
    """

    def __init__(
        self,
        prompt: str,
        max_new_tokens: int,
        deadline: float | None = None,
        now: float | None = None,
        drive: Callable[[], bool] | None = None,
    ) -> None:
        self.id = next(_REQUEST_IDS)
        self.prompt = prompt
        self.max_new_tokens = max_new_tokens
        self.deadline = deadline
        self.submitted_at = time.monotonic() if now is None else now
        self.scheduled_at: float | None = None
        self.finished_at: float | None = None
        self.tokens_generated = 0
        self.done = False
        self.error: BaseException | None = None
        self._text: str | None = None
        self._drive = drive

    # ------------------------------------------------------------------
    # Completion (scheduler side)
    # ------------------------------------------------------------------

    def complete(self, text: str, now: float | None = None) -> bool:
        """Resolve the request with generated ``text``.

        Returns whether *this* call resolved the request; ``False`` means
        it was already resolved (the caller must not record stats for it
        again).
        """
        if self.done:
            return False
        self.done = True
        self._text = text
        self.finished_at = time.monotonic() if now is None else now
        return True

    def fail(self, error: BaseException, now: float | None = None) -> bool:
        """Resolve the request with ``error`` (raised from :meth:`result`).

        Idempotent like :meth:`complete`; returns whether this call won.
        """
        if self.done:
            return False
        self.done = True
        self.error = error
        self.finished_at = time.monotonic() if now is None else now
        return True

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """Whether the request resolved successfully."""
        return self.done and self.error is None

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed as of monotonic time ``now``."""
        return self.deadline is not None and now > self.deadline

    def result(self, timeout: float | None = None) -> str:
        """Step the server until resolved; return the generated text or raise.

        Each iteration of the server's scheduler runs on this thread.
        ``timeout`` is checked between iterations: past it, a request
        still in flight raises ``TimeoutError`` (a step already running
        is never interrupted).  Otherwise raises the failure the
        scheduler recorded (:class:`DeadlineExceeded`,
        :class:`ServerClosed`, :class:`StepFailed`, ...).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.done:
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"request {self.id} still in flight after {timeout}s"
                )
            if self._drive is None or not self._drive():
                raise TimeoutError(
                    f"request {self.id} is pending with no server to step it"
                )
        if self.error is not None:
            raise self.error
        assert self._text is not None
        return self._text

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"ServerRequest(id={self.id}, {state}, prompt={self.prompt!r})"


class RequestQueue:
    """Bounded FIFO of pending :class:`ServerRequest` with admission control."""

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._pending: deque[ServerRequest] = deque()

    def submit(self, request: ServerRequest) -> ServerRequest:
        """Enqueue ``request`` or raise :class:`AdmissionError` when full."""
        if len(self._pending) >= self.max_depth:
            raise AdmissionError(
                f"queue full ({self.max_depth} pending); request rejected"
            )
        self._pending.append(request)
        return request

    def take(self, limit: int, now: float) -> tuple[list[ServerRequest], list[ServerRequest]]:
        """Pop up to ``limit`` schedulable requests.

        Returns ``(admitted, expired)``: requests whose deadline already
        passed are popped, failed with :class:`DeadlineExceeded`, and
        returned separately -- they never consume a batch slot.
        """
        admitted: list[ServerRequest] = []
        expired: list[ServerRequest] = []
        while self._pending and len(admitted) < limit:
            request = self._pending.popleft()
            if request.expired(now):
                request.fail(
                    DeadlineExceeded(
                        f"request {request.id} missed its deadline while queued"
                    ),
                    now=now,
                )
                expired.append(request)
                continue
            admitted.append(request)
        return admitted, expired

    def drain(self, error: BaseException) -> list[ServerRequest]:
        """Fail every pending request with ``error`` (server shutdown)."""
        drained = list(self._pending)
        self._pending.clear()
        for request in drained:
            request.fail(error)
        return drained

    def __len__(self) -> int:
        return len(self._pending)
