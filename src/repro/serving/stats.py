"""Per-request accounting and the aggregate :class:`ServerStats` report.

Every request that reaches the server leaves a :class:`RequestRecord`
(latency, queue wait, token counts, outcome).  :class:`ServerStats`
accumulates those records plus scheduler-level counters (decode steps,
batch occupancy, admission/deadline rejections) and renders them into a
:class:`StatsReport` -- the rejection, decode-step, occupancy and
step-failure counters the ``deploy_serve_eval`` pipeline benchmark
reads.  Byte traffic is not tracked here:
the server records per-request transfers into
:mod:`repro.memory.traffic` under ``serve:``-prefixed tags, and the
report pulls totals back out of the ledger.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

from repro.memory.traffic import TrafficLedger
from repro.serving.queue import ServerRequest

SERVE_TAG_PREFIX = "serve:"
"""Prefix of :mod:`repro.memory.traffic` tags written by the server.

Per-request records use ``serve:req<id>`` so a single request's bytes can
be pulled out of the global ledger after the fact.
"""


def request_tag(request_id: int) -> str:
    """The traffic-ledger tag for one request's transfers."""
    return f"{SERVE_TAG_PREFIX}req{request_id}"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of empty list")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil without float
    return sorted_values[int(rank) - 1]


@dataclass(frozen=True)
class RequestRecord:
    """Outcome of one request, as the stats layer remembers it."""

    request_id: int
    prompt_tokens: int
    new_tokens: int
    queue_wait_s: float | None
    latency_s: float | None
    ok: bool
    error: str | None = None

    @classmethod
    def from_request(cls, request: ServerRequest, prompt_tokens: int) -> "RequestRecord":
        """Snapshot a resolved :class:`ServerRequest`."""
        error = request.error
        return cls(
            request_id=request.id,
            prompt_tokens=prompt_tokens,
            new_tokens=request.tokens_generated,
            queue_wait_s=request.queue_wait_s,
            latency_s=request.latency_s,
            ok=request.ok,
            error=None if error is None else type(error).__name__,
        )


@dataclass(frozen=True)
class StatsReport:
    """Aggregate serving metrics over one measurement window.

    Latency percentiles are over *completed* requests only; rejected and
    aborted requests are counted separately so an overloaded server
    cannot flatter its tail by shedding load.
    """

    wall_s: float
    submitted: int
    completed: int
    rejected_admission: int
    rejected_deadline: int
    aborted_deadline: int
    failed_other: int
    requests_per_s: float
    tokens_generated: int
    tokens_per_s: float
    latency_p50_s: float | None
    latency_p99_s: float | None
    latency_mean_s: float | None
    queue_wait_mean_s: float | None
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
    """Thread-safe accumulator behind :meth:`PaletteServer.stats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[RequestRecord] = []
        self.submitted = 0
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
        self.started_at: float | None = None
        self.stopped_at: float | None = None

    def note_submitted(self) -> None:
        """Count a request that passed admission."""
        with self._lock:
            self.submitted += 1

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

    def note_finished(self, record: RequestRecord) -> None:
        """Record a resolved request (completed or failed)."""
        with self._lock:
            self._records.append(record)

    def records(self) -> list[RequestRecord]:
        """Snapshot of all finished-request records so far."""
        with self._lock:
            return list(self._records)

    def report(
        self,
        wall_s: float,
        ledger: TrafficLedger | None = None,
        tag_prefix: str = SERVE_TAG_PREFIX,
    ) -> StatsReport:
        """Render accumulated counters into a :class:`StatsReport`.

        ``wall_s`` is the measurement window (the caller owns the clock);
        ``ledger`` supplies byte totals from ``tag_prefix``-tagged
        transfers -- weight reads are ``dst="flops"`` records, activation
        traffic everything else.
        """
        with self._lock:
            records = list(self._records)
            submitted = self.submitted
            rejected_admission = self.rejected_admission
            rejected_deadline = self.rejected_deadline
            aborted_deadline = self.aborted_deadline
            decode_steps = self.decode_steps
            decoded_rows = self.decoded_rows
            step_failures = self.step_failures
            step_retries = self.step_retries
            watchdog_kills = self.watchdog_kills
            loop_respawns = self.loop_respawns
            kv_cache_bytes = self.kv_cache_bytes
            kv_cache_peak_bytes = self.kv_cache_peak_bytes
        ok_records = [r for r in records if r.ok]
        failed_other = sum(
            1
            for r in records
            if not r.ok and r.error not in ("DeadlineExceeded",)
        )
        latencies = sorted(
            r.latency_s for r in ok_records if r.latency_s is not None
        )
        waits = [r.queue_wait_s for r in ok_records if r.queue_wait_s is not None]
        tokens = sum(r.new_tokens for r in ok_records)
        wall = max(wall_s, 1e-9)
        weight_bytes = 0
        activation_bytes = 0
        if ledger is not None:
            for transfer in ledger.transfers():
                if not transfer.tag.startswith(tag_prefix):
                    continue
                if transfer.dst == "flops":
                    weight_bytes += transfer.nbytes
                else:
                    activation_bytes += transfer.nbytes
        return StatsReport(
            wall_s=wall_s,
            submitted=submitted,
            completed=len(ok_records),
            rejected_admission=rejected_admission,
            rejected_deadline=rejected_deadline,
            aborted_deadline=aborted_deadline,
            failed_other=failed_other,
            requests_per_s=len(ok_records) / wall,
            tokens_generated=tokens,
            tokens_per_s=tokens / wall,
            latency_p50_s=percentile(latencies, 50) if latencies else None,
            latency_p99_s=percentile(latencies, 99) if latencies else None,
            latency_mean_s=sum(latencies) / len(latencies) if latencies else None,
            queue_wait_mean_s=sum(waits) / len(waits) if waits else None,
            decode_steps=decode_steps,
            mean_batch_occupancy=decoded_rows / decode_steps if decode_steps else 0.0,
            weight_bytes_read=weight_bytes,
            activation_bytes=activation_bytes,
            step_failures=step_failures,
            step_retries=step_retries,
            watchdog_kills=watchdog_kills,
            loop_respawns=loop_respawns,
            kv_cache_bytes=kv_cache_bytes,
            kv_cache_peak_bytes=kv_cache_peak_bytes,
        )
