"""Serving benchmark: palette execution vs dense under concurrent traffic.

Trains one small model, compresses it, and serves the same request load
through three scenarios:

- ``uncompressed`` -- the plain 16-bit model behind the same queue and
  batcher (the baseline the paper's deployment story competes with);
- ``compressed-dense`` -- clustered layers reconstructing the full hard
  weight per layer (``eval_path="dense"``);
- ``compressed-palette`` -- clustered layers keeping lut + indices and
  serving one resident dequantized weight each (``eval_path="palette"``).

Each scenario reports requests/sec, p50/p99 latency, batch occupancy,
and weight bytes (resident artifact + per-step read traffic from the
ledger).  Two gates make the numbers trustworthy rather than merely
fast:

- **token identity** -- the palette scenario's completions, produced
  under concurrent multi-client load, must be *identical* to the dense
  scenario's and to offline single-prompt :func:`repro.llm.generate.
  generate` on the same compressed model;
- **admission control** -- a submit burst beyond the queue bound must
  shed load with :class:`~repro.serving.queue.AdmissionError`, and a
  microscopic deadline must reject with
  :class:`~repro.serving.queue.DeadlineExceeded`; everything submitted
  must be accounted for (completed + rejected == submitted).

Per-request byte accounting must also flow through the traffic ledger.
Wall times and throughput are recorded but not gated -- CI runners are
noisy.  ``python -m repro.bench serving`` writes ``BENCH_serving.json``
(schema: ``docs/benchmarks.md``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass, field

from repro.core import ClusteredLinear
from repro.core.compressor import ModelCompressor
from repro.core.config import DKMConfig
from repro.data import (
    FactWorld,
    corpus_batches,
    corpus_vocabulary,
    generate_corpus,
)
from repro.llm import (
    MICRO,
    FinetuneConfig,
    WordTokenizer,
    build_model,
    generate,
    train_causal_lm,
)
from repro.memory.traffic import TrafficLedger
from repro.serving import (
    AdmissionError,
    PaletteServer,
    ServingConfig,
    request_tag,
)

import repro.tensor as rt


@dataclass
class ServingScenarioRow:
    """One scenario's throughput/latency/byte measurements."""

    scenario: str
    eval_path: str
    wall_s: float
    submitted: int
    completed: int
    requests_per_s: float
    tokens_per_s: float
    latency_p50_s: float | None
    latency_p99_s: float | None
    decode_steps: int
    mean_batch_occupancy: float
    weight_bytes_resident: int
    palette_exec_bytes: int
    weight_bytes_read: int
    tile_cache: dict = field(default_factory=dict)
    completions: list[str] = field(default_factory=list)


@dataclass
class ServingBenchResult:
    """Everything :func:`run_serving` measured, JSON-serializable."""

    cpu_count: int = 0
    n_requests: int = 0
    max_new_tokens: int = 0
    max_batch_size: int = 0
    bits: int = 0
    rows: list[ServingScenarioRow] = field(default_factory=list)
    offline_reference: list[str] = field(default_factory=list)
    tokens_identical: bool = False
    admission_rejected: int = 0
    admission_completed: int = 0
    admission_submit_attempts: int = 0
    admission_accounted: bool = False
    deadline_rejected: int = 0
    request_bytes_tagged: int = 0

    def row(self, scenario: str) -> ServingScenarioRow | None:
        """The named scenario's row, if recorded."""
        for row in self.rows:
            if row.scenario == scenario:
                return row
        return None

    @property
    def palette_weight_ratio(self) -> float | None:
        """Palette over uncompressed resident weight bytes, if both ran."""
        palette = self.row("compressed-palette")
        uncompressed = self.row("uncompressed")
        if palette is None or uncompressed is None:
            return None
        if not uncompressed.weight_bytes_resident:
            return None
        return palette.weight_bytes_resident / uncompressed.weight_bytes_resident

    def to_json_dict(self) -> dict:
        """The ``BENCH_serving.json`` payload (see ``docs/benchmarks.md``)."""
        return {
            "benchmark": "serving",
            "cpu_count": self.cpu_count,
            "n_requests": self.n_requests,
            "max_new_tokens": self.max_new_tokens,
            "max_batch_size": self.max_batch_size,
            "bits": self.bits,
            "rows": [asdict(row) for row in self.rows],
            "tokens_identical": self.tokens_identical,
            "palette_vs_uncompressed_weight_bytes": self.palette_weight_ratio,
            "admission": {
                "submit_attempts": self.admission_submit_attempts,
                "rejected": self.admission_rejected,
                "completed": self.admission_completed,
                "accounted": self.admission_accounted,
            },
            "deadline_rejected": self.deadline_rejected,
            "request_bytes_tagged": self.request_bytes_tagged,
        }

    def render(self) -> str:
        def seconds(value: float | None) -> str:
            return "None" if value is None else f"{value:.4f}s"

        lines = [
            f"{row.scenario:<19} ({row.eval_path:<7}) "
            f"{row.requests_per_s:>7.2f} req/s  "
            f"p50={seconds(row.latency_p50_s)} p99={seconds(row.latency_p99_s)}  "
            f"occupancy={row.mean_batch_occupancy:.2f}  "
            f"weights={row.weight_bytes_resident}B resident / "
            f"{row.weight_bytes_read}B read"
            for row in self.rows
        ]
        ratio = self.palette_weight_ratio
        if ratio is not None:
            lines.append(f"palette/uncompressed resident weight bytes: {ratio:.3f}")
        lines.append(
            f"admission: {self.admission_rejected} rejected / "
            f"{self.admission_completed} completed of "
            f"{self.admission_submit_attempts} attempts  "
            f"deadline_rejected={self.deadline_rejected}"
        )
        lines.append(
            f"tokens-identical={self.tokens_identical}  cpu_count={self.cpu_count}"
        )
        return "\n".join(lines)

    def failures(self) -> list[str]:
        failures = [
            f"{row.scenario}: completed {row.completed} of "
            f"{self.n_requests} requests"
            for row in self.rows
            if row.completed != self.n_requests
        ]
        if not self.tokens_identical:
            failures.append(
                "palette completions differ from dense/offline reference "
                "(eval paths are not bit-identical under concurrent load)"
            )
        ratio = self.palette_weight_ratio
        if ratio is not None and ratio >= 1.0:
            failures.append(
                "palette artifact is not smaller than the uncompressed "
                f"weights (ratio {ratio:.3f})"
            )
        if self.admission_rejected == 0:
            failures.append("admission probe: burst past queue bound shed nothing")
        if not self.admission_accounted:
            failures.append(
                "admission probe: rejected + completed != submitted "
                f"({self.admission_rejected} + {self.admission_completed} vs "
                f"{self.admission_submit_attempts})"
            )
        if self.deadline_rejected == 0:
            failures.append("microscopic deadline was not rejected")
        if self.request_bytes_tagged != 4:
            failures.append(
                "per-request ledger accounting: expected 4 tagged requests, "
                f"got {self.request_bytes_tagged}"
            )
        return failures


def _train_small_model(sentences: int, epochs: int, seed: int):
    """One briefly fine-tuned MICRO model plus its tokenizer and prompts."""
    world = FactWorld(seed=seed)
    tokenizer = WordTokenizer(corpus_vocabulary(world))
    corpus = generate_corpus(world, sentences, seed=seed + 1)
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=seed)
    model.to(rt.GPU)
    train_causal_lm(
        model,
        corpus_batches(corpus, tokenizer, 16, rt.GPU, epochs=epochs, seed=seed + 2),
        FinetuneConfig(lr=3e-3),
    )
    model.eval()
    return model, tokenizer, corpus


def _state_dict(model) -> dict:
    return {k: v.numpy().copy() for k, v in model.state_dict().items()}


def _load_state(model, state: dict) -> None:
    for name, param in model.state_dict().items():
        param.copy_(state[name])
    model.eval()


def _weight_bytes_resident(model, eval_path: str) -> tuple[int, int]:
    """Deployable weight bytes plus palette executor bytes.

    Dense scenarios hold the full weight tensor; the palette scenario
    ships the packed artifact (16-bit lut + bit-packed indices) and
    additionally keeps its float32 lut and uint8 indices in memory, which
    the second return value reports separately (the resident dequantized
    weights are the tile cache's, not counted here).
    """
    modules = list(model.named_modules())
    inner_ids = {
        id(m.inner) for _, m in modules if isinstance(m, ClusteredLinear)
    }
    total = 0
    exec_bytes = 0
    for _, module in modules:
        if isinstance(module, ClusteredLinear):
            if eval_path == "palette" and module.palette_exec is not None:
                total += module.palette_exec.packed_nbytes
                exec_bytes += module.palette_exec.nbytes
            else:
                total += module.inner.weight.nbytes
            continue
        if id(module) in inner_ids:
            continue
        weight = getattr(module, "weight", None)
        if weight is not None and hasattr(weight, "nbytes"):
            total += weight.nbytes
    return total, exec_bytes


def _drive_concurrent(
    server: PaletteServer,
    prompts: list[str],
    max_new_tokens: int,
    clients: int = 4,
    timeout: float = 300.0,
) -> list[str]:
    """Submit every prompt from ``clients`` threads; return texts in order."""
    results: list[str | None] = [None] * len(prompts)
    errors: list[BaseException] = []

    def client(indices: list[int]) -> None:
        for i in indices:
            try:
                results[i] = server.generate(
                    prompts[i], max_new_tokens=max_new_tokens, timeout=timeout
                )
            except BaseException as exc:  # surfaced to the caller below
                errors.append(exc)
                return

    threads = [
        threading.Thread(target=client, args=(list(range(c, len(prompts), clients)),))
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [r for r in results if r is not None]


def _run_scenario(
    name: str,
    model,
    tokenizer,
    prompts: list[str],
    config: ServingConfig,
    max_new_tokens: int,
) -> ServingScenarioRow:
    ledger = TrafficLedger()
    server = PaletteServer(model, tokenizer, config=config, ledger=ledger)
    with server:
        completions = _drive_concurrent(server, prompts, max_new_tokens)
        report = server.stats()
        resident, exec_bytes = _weight_bytes_resident(model, config.eval_path)
        tile_stats = server.tile_cache.stats.to_dict()
    return ServingScenarioRow(
        scenario=name,
        eval_path=config.eval_path,
        wall_s=report.wall_s,
        submitted=report.submitted,
        completed=report.completed,
        requests_per_s=report.requests_per_s,
        tokens_per_s=report.tokens_per_s,
        latency_p50_s=report.latency_p50_s,
        latency_p99_s=report.latency_p99_s,
        decode_steps=report.decode_steps,
        mean_batch_occupancy=report.mean_batch_occupancy,
        weight_bytes_resident=resident,
        palette_exec_bytes=exec_bytes,
        weight_bytes_read=report.weight_bytes_read,
        tile_cache=tile_stats,
        completions=completions,
    )


def _probe_admission(
    model, tokenizer, result: ServingBenchResult, prompt: str
) -> None:
    """Flood a tiny queue; count sheds and prove request accounting."""
    config = ServingConfig(
        max_batch_size=1,
        max_queue_depth=2,
        max_new_tokens=4,
        poll_interval_s=0.001,
    )
    server = PaletteServer(model, tokenizer, config=config, ledger=TrafficLedger())
    burst = 24
    accepted = []
    with server:
        for _ in range(burst):
            try:
                accepted.append(server.submit(prompt, max_new_tokens=4))
            except AdmissionError:
                result.admission_rejected += 1
        for request in accepted:
            request.result(timeout=300.0)
        result.admission_completed = sum(1 for r in accepted if r.ok)
        # A microscopic deadline expires before the scheduler's next take.
        try:
            late = server.submit(prompt, max_new_tokens=4, deadline_s=1e-6)
        except AdmissionError:  # pragma: no cover - queue is drained here
            late = None
        if late is not None:
            try:
                late.result(timeout=300.0)
            except Exception as exc:
                if type(exc).__name__ == "DeadlineExceeded":
                    result.deadline_rejected += 1
    result.admission_submit_attempts = burst
    result.admission_accounted = (
        result.admission_rejected + len(accepted) == burst
        and result.admission_completed == len(accepted)
    )


def run_serving(
    n_requests: int = 16,
    max_new_tokens: int = 8,
    max_batch_size: int = 4,
    bits: int = 4,
    sentences: int = 400,
    epochs: int = 2,
    seed: int = 0,
) -> ServingBenchResult:
    """Run the serving benchmark end to end, fixed seed.

    Trains one model, snapshots its weights, and replays the identical
    request load through the three scenarios (fresh model + snapshot per
    scenario, so clustering state never leaks between them); then probes
    admission control on the compressed model.
    """
    result = ServingBenchResult(
        cpu_count=os.cpu_count() or 1,
        n_requests=n_requests,
        max_new_tokens=max_new_tokens,
        max_batch_size=max_batch_size,
        bits=bits,
    )
    base_model, tokenizer, corpus = _train_small_model(sentences, epochs, seed)
    state = _state_dict(base_model)
    prompts = [
        " ".join(corpus[i % len(corpus)].split()[:3]) for i in range(n_requests)
    ]

    def fresh_model(compressed: bool):
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=seed)
        model.to(rt.GPU)
        _load_state(model, state)
        if compressed:
            ModelCompressor(DKMConfig(bits=bits)).compress(model)
            model.eval()
        return model

    scenarios = [
        ("uncompressed", False, "dense"),
        ("compressed-dense", True, "dense"),
        ("compressed-palette", True, "palette"),
    ]
    offline_model = fresh_model(compressed=True)
    result.offline_reference = [
        generate(offline_model, tokenizer, p, max_new_tokens=max_new_tokens)
        for p in prompts
    ]
    for name, compressed, eval_path in scenarios:
        model = fresh_model(compressed)
        config = ServingConfig(
            max_batch_size=max_batch_size,
            max_queue_depth=max(64, 2 * n_requests),
            max_new_tokens=max_new_tokens,
            eval_path=eval_path,
        )
        result.rows.append(
            _run_scenario(name, model, tokenizer, prompts, config, max_new_tokens)
        )

    dense_row = result.row("compressed-dense")
    palette_row = result.row("compressed-palette")
    result.tokens_identical = (
        dense_row is not None
        and palette_row is not None
        and palette_row.completions == dense_row.completions
        and palette_row.completions == result.offline_reference
    )

    probe_model = fresh_model(compressed=True)
    _probe_admission(probe_model, tokenizer, result, prompts[0])

    # Per-request ledger accounting: one more tiny server run, counting
    # tagged bytes for each request it completed.
    ledger = TrafficLedger()
    config = ServingConfig(max_batch_size=2, max_new_tokens=4)
    with PaletteServer(probe_model, tokenizer, config=config, ledger=ledger) as srv:
        reqs = [srv.submit(p, max_new_tokens=4) for p in prompts[:4]]
        for r in reqs:
            r.result(timeout=300.0)
    result.request_bytes_tagged = sum(
        1
        for r in reqs
        if ledger.total_bytes(tag=request_tag(r.id)) > 0
    )
    return result


def run(quick: bool = False, seed: int = 0) -> ServingBenchResult:
    """``python -m repro.bench serving``; quick = smaller corpus and load."""
    if quick:
        return run_serving(
            n_requests=6, max_new_tokens=4, sentences=120, epochs=1, seed=seed
        )
    return run_serving(seed=seed)
