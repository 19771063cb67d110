"""The aggregate :class:`ServerStats` counters and their :class:`StatsReport`.

:class:`ServerStats` keeps counters only -- request outcomes, generated
tokens, decode steps, batch occupancy, admission/deadline rejections,
scheduler faults, K/V residency and bytes -- so its size does not grow with
the number of requests served.  It renders them into a :class:`StatsReport`:
the rejection, decode-step, occupancy, step-failure and weight-byte counters
the ``deploy_serve_eval`` pipeline benchmark reads.  Per-request latency and
queue wait live on each :class:`~repro.serving.queue.ServerRequest`.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of empty list")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil without float
    return sorted_values[int(rank) - 1]


@dataclass(frozen=True)
class StatsReport:
    """Aggregate serving metrics over one measurement window.

    ``completed`` and ``tokens_generated`` count successful requests only;
    rejected and aborted requests are counted separately.
    """

    wall_s: float
    submitted: int
    completed: int
    rejected_admission: int
    rejected_deadline: int
    aborted_deadline: int
    tokens_generated: int
    decode_steps: int
    mean_batch_occupancy: float
    weight_bytes_read: int
    activation_bytes: int
    step_failures: int = 0
    step_retries: int = 0
    watchdog_kills: int = 0
    loop_respawns: int = 0
    kv_cache_bytes: int = 0
    kv_cache_peak_bytes: int = 0

    def to_json_dict(self) -> dict:
        """A JSON-serializable dict (the BENCH_serving row shape)."""
        return asdict(self)


class ServerStats:
    """Thread-safe counters behind :meth:`PaletteServer.stats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.tokens_generated = 0
        self.rejected_admission = 0
        self.rejected_deadline = 0
        self.aborted_deadline = 0
        self.decode_steps = 0
        self.decoded_rows = 0
        self.step_failures = 0
        self.step_retries = 0
        self.watchdog_kills = 0
        self.loop_respawns = 0
        self.kv_cache_bytes = 0
        self.kv_cache_peak_bytes = 0
        self.weight_bytes_read = 0
        self.activation_bytes = 0

    def note_submitted(self, prompt_bytes: int) -> None:
        """Count a request that passed admission, and its prompt's bytes."""
        with self._lock:
            self.submitted += 1
            self.activation_bytes += prompt_bytes

    def note_completed(self, tokens: int, text_bytes: int) -> None:
        """Count a request resolved with its text, its tokens and text bytes."""
        with self._lock:
            self.completed += 1
            self.tokens_generated += tokens
            self.activation_bytes += text_bytes

    def note_rejected_admission(self) -> None:
        """Count a submit bounced by the queue-depth bound."""
        with self._lock:
            self.rejected_admission += 1

    def note_rejected_deadline(self, n: int = 1) -> None:
        """Count requests that expired while still queued."""
        with self._lock:
            self.rejected_deadline += n

    def note_aborted_deadline(self, n: int = 1) -> None:
        """Count requests aborted mid-decode by their deadline."""
        with self._lock:
            self.aborted_deadline += n

    def note_step(self, batch_rows: int) -> None:
        """Count one continuous-batching decode step over ``batch_rows``."""
        with self._lock:
            self.decode_steps += 1
            self.decoded_rows += batch_rows

    def note_weight_bytes(self, nbytes: int) -> None:
        """Count the weight bytes one decode step's served layers read."""
        with self._lock:
            self.weight_bytes_read += nbytes

    def note_step_failure(self) -> None:
        """Count a decode step that failed its whole batch (crash boundary)."""
        with self._lock:
            self.step_failures += 1

    def note_step_retry(self, n: int = 1) -> None:
        """Count transient-step retries taken before a step succeeded."""
        with self._lock:
            self.step_retries += n

    def note_watchdog_kill(self) -> None:
        """Count a scheduler loop killed by the step watchdog (hang)."""
        with self._lock:
            self.watchdog_kills += 1

    def note_loop_respawn(self) -> None:
        """Count a fresh scheduler loop spawned after a kill."""
        with self._lock:
            self.loop_respawns += 1

    def note_kv_cache(self, resident_bytes: int) -> None:
        """Set the K/V bytes in-flight sequences hold now; tracks the peak."""
        with self._lock:
            self.kv_cache_bytes = resident_bytes
            if resident_bytes > self.kv_cache_peak_bytes:
                self.kv_cache_peak_bytes = resident_bytes

    def report(self, wall_s: float) -> StatsReport:
        """Render the counters into a :class:`StatsReport`.

        ``wall_s`` is the measurement window (the caller owns the clock).
        """
        with self._lock:
            return StatsReport(
                wall_s=wall_s,
                submitted=self.submitted,
                completed=self.completed,
                rejected_admission=self.rejected_admission,
                rejected_deadline=self.rejected_deadline,
                aborted_deadline=self.aborted_deadline,
                tokens_generated=self.tokens_generated,
                decode_steps=self.decode_steps,
                mean_batch_occupancy=(
                    self.decoded_rows / self.decode_steps if self.decode_steps else 0.0
                ),
                weight_bytes_read=self.weight_bytes_read,
                activation_bytes=self.activation_bytes,
                step_failures=self.step_failures,
                step_retries=self.step_retries,
                watchdog_kills=self.watchdog_kills,
                loop_respawns=self.loop_respawns,
                kv_cache_bytes=self.kv_cache_bytes,
                kv_cache_peak_bytes=self.kv_cache_peak_bytes,
            )
