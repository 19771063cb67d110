"""Inputs, host-speed calibration, statistics and pipeline-tail helpers shared by the e2e workloads.

Everything a workload feeds the library is generated here from ``--seed``;
the library only ever sees the generated inputs.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

import repro.tensor as rt
from repro.core.compressor import CompressionReport, ModelCompressor
from repro.data import (
    FactWorld,
    alpaca_batches,
    corpus_batches,
    generate_alpaca,
    generate_corpus,
)
from repro.data.corpus import corpus_vocabulary
from repro.llm import FinetuneConfig, ModelSpec, WordTokenizer, build_model, train_causal_lm
from repro.memory import global_ledger, global_registry
from repro.serving.stats import percentile

SPEC = ModelSpec("bench", vocab_size=0, dim=128, n_layers=2, n_heads=8, hidden_dim=256, max_seq_len=64)
QUICK_SPEC = ModelSpec("bench-quick", vocab_size=0, dim=48, n_layers=1, n_heads=4, hidden_dim=96, max_seq_len=64)
BATCH_SIZE = 16
BITS = 3
# The highest percentile with ten samples beyond it at the ~40 timed
# operations the slowest workload fits in a run (choosing-metrics, sec. 1).
TAIL_Q = 75
TRACED_FINALIZE_ROUNDS = 3


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


class HostSpeed:
    """How fast the host runs right now, sampled with a fixed numpy kernel.

    The 2-core reference host is a shared VM whose effective speed wanders
    by 20 % and more between one minute and the next (the same 240 ms
    training step reads 200 ms in a quiet spell); no median over a 20 s run
    removes that.  So the benchmark runs a reference kernel at every pause
    between timed operations and reports each time scaled by ``REF_MS`` /
    (the mean of the reference samples around the operation): milliseconds
    *at reference speed*.  The kernel is one gemm, one sort and a chain of
    small array operations on fixed data -- BLAS, a memory-bound pass and
    interpreter-bound small-tensor work, the three things the library's
    time goes to; the chain is half of it because a slow spell stretches
    interpreter-bound code differently from a gemm (measured: scaling
    evaluation passes by gemm + sort alone left 9 % of spread, with the
    chain 5 %).  Code under test never runs inside the kernel or beside it,
    so a change to the library moves the reported time one for one, while a
    slow spell of the host stretches operation and kernel alike and
    cancels.  Stamps in trace files stay raw.
    """

    REF_MS = 8.5  # the kernel on a quiet spell of the reference host
    CONTEXT = 2  # samples taken on each side of an operation
    CHAIN = 300  # rounds of small operations: as long as the gemm and the sort together

    def __init__(self, clock: Callable[[], float]) -> None:
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((448, 448), dtype=np.float32)
        self._vector = rng.standard_normal(600_000, dtype=np.float32)
        self._rows = rng.standard_normal((8, 128), dtype=np.float32)
        self._mix = np.float32(0.05) * rng.standard_normal((128, 128), dtype=np.float32)
        self.clock = clock
        self.stamps: list[float] = []
        self.samples_ms: list[float] = []
        self.sample()  # the first call pays for BLAS start-up and cold caches
        self.stamps.clear()
        self.samples_ms.clear()

    def sample(self) -> None:
        """Run the reference kernel once and remember when and how long."""
        start = self.clock()
        self._square @ self._square
        np.sort(self._vector)
        rows = self._rows
        for _ in range(self.CHAIN):
            rows = np.maximum(rows @ self._mix, 0.0)
            rows = np.exp(rows - rows.max(axis=-1, keepdims=True))
            rows = rows / rows.sum(axis=-1, keepdims=True)
        self.samples_ms.append((self.clock() - start) * 1e3)
        self.stamps.append(start)

    def scale(self, start: float, end: float) -> float:
        """``REF_MS`` over the mean sample, ``CONTEXT`` before ``start`` to ``CONTEXT`` after ``end``."""
        low = max(bisect.bisect_right(self.stamps, start) - self.CONTEXT, 0)
        high = bisect.bisect_left(self.stamps, end) + self.CONTEXT
        return self.REF_MS / statistics.fmean(self.samples_ms[low:high])

    def ms(self, start: float, end: float) -> float:
        """The interval in milliseconds at reference speed."""
        return (end - start) * 1e3 * self.scale(start, end)

    def timed(self, call: Callable[[], object]) -> tuple[float, object]:
        """Sample, run ``call``, sample; its time at reference speed and its result."""
        self.sample()
        start = self.clock()
        result = call()
        end = self.clock()
        self.sample()
        return self.ms(start, end), result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


@dataclass
class Metric:
    """One reported number, how many samples are behind it and their relative IQR."""

    value: float
    n: int = 1
    spread: float = 0.0

    def to_dict(self) -> dict:
        return {"value": self.value, "n": self.n, "spread": self.spread}


def rel_iqr(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    centre = statistics.median(samples)
    return (q3 - q1) / centre if centre else 0.0


def timing(samples: list[float], q: float = 50) -> Metric:
    """Nearest-rank percentile ``q`` of ``samples`` with count and spread."""
    return Metric(percentile(sorted(samples), q), len(samples), rel_iqr(samples))


@dataclass
class Row:
    """Everything one workload run reports."""

    workload: str
    e2e: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    setup_samples: list[float] = field(default_factory=list)
    warmup_s: float = 0.0

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    def finish_setup(self, import_s: float) -> None:
        """``setup_s`` = import + the median of this run's set-ups + its warm-up."""
        total = [import_s + s + self.warmup_s for s in self.setup_samples]
        self.e2e["setup_s"] = Metric(statistics.median(total), len(total), rel_iqr(total))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    world: FactWorld
    tokenizer: WordTokenizer
    corpus: list[str]
    alpaca: list


def make_inputs(seed: int, n_corpus: int, n_alpaca: int) -> Inputs:
    """The seeded fact world, its tokenizer and both text sets."""
    world = FactWorld(seed=seed)
    return Inputs(
        world=world,
        tokenizer=WordTokenizer(corpus_vocabulary(world)),
        corpus=generate_corpus(world, n_corpus, seed=seed + 1),
        alpaca=generate_alpaca(world, n_alpaca, seed=seed + 2),
    )


def pretrained_model(inputs: Inputs, spec: ModelSpec, seed: int, n_pretrain_alpaca: int):
    """The 'pretrained LLaMA' stand-in of ``examples/compress_llm.py``, shortened.

    One epoch over the corpus, then one over the first
    ``n_pretrain_alpaca`` instruction examples, on the simulated GPU.
    """
    tok = inputs.tokenizer
    model = build_model(spec, vocab_size=tok.vocab_size, seed=seed)
    model.to(rt.GPU)
    config = FinetuneConfig(lr=3e-3)
    train_causal_lm(
        model, corpus_batches(inputs.corpus, tok, BATCH_SIZE, rt.GPU, seed=seed + 3), config
    )
    train_causal_lm(
        model,
        alpaca_batches(inputs.alpaca[:n_pretrain_alpaca], tok, BATCH_SIZE, rt.GPU, seed=seed + 4),
        config,
    )
    return model


def timed_setup(row: Row, host: HostSpeed, build: Callable[[], object]):
    """Run one set-up, add its seconds at reference speed to the row, return what it built."""
    ms, built = host.timed(build)
    row.setup_samples.append(ms / 1e3)
    return built


# ----------------------------------------------------------------------
# Timed region helpers
# ----------------------------------------------------------------------


def start_timed_region() -> None:
    """What every workload does between set-up and the first timed op."""
    gc.collect()
    global_registry().reset_peaks()
    global_ledger().clear()


def peak_metrics(row: Row) -> None:
    """``gpu`` peak, and the per-node peak: ``gpu`` + the largest host domain.

    The host term is the maximum over ``cpu`` and ``cpu:peer*`` -- the
    per-learner footprint sharding exists to cut.
    """
    snapshot = global_registry().snapshot_all()
    gpu = snapshot["gpu"].peak_bytes if "gpu" in snapshot else 0
    host = max(
        (s.peak_bytes for name, s in snapshot.items() if name.startswith("cpu")), default=0
    )
    row.e2e["gpu_peak_bytes"] = Metric(float(gpu))
    row.e2e["node_peak_bytes"] = Metric(float(gpu + host))
    row.layers["core.offload.host_peak_bytes"] = Metric(float(host))


class TimedBatches:
    """Hands batches to a training loop, stamping the clock at each hand-over.

    ``train_causal_lm`` pulls one batch per step, so the gap between two
    pulls is one whole step, timed from outside the library.  Each
    hand-over runs, between the end of one step and the start of the next,
    the hook registered for that step (if any) and one host-speed sample.
    The first ``warmup`` steps belong to set-up.  Iteration ends once
    ``min_steps`` timed steps are done and ``budget_s`` has passed.
    """

    def __init__(
        self,
        batches: Iterable,
        host: HostSpeed,
        warmup: int,
        budget_s: float,
        min_steps: int,
        hooks: dict[int, Callable[[], None]] | None = None,
    ) -> None:
        self.batches = batches
        self.host = host
        self.warmup = warmup
        self.budget_s = budget_s
        self.min_steps = min_steps
        self.hooks = hooks or {}
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tokens: list[int] = []

    def _hand_over(self, timed: int) -> float:
        """Close the previous step, run the pause work, open the next; the closing stamp."""
        clock = self.host.clock
        closed = clock()
        if self.starts:
            self.ends.append(closed)
        if timed in self.hooks:
            self.hooks[timed]()
        self.host.sample()
        return closed

    def __iter__(self) -> Iterator:
        first_timed = None
        for index, batch in enumerate(self.batches):
            timed = index - self.warmup
            now = self._hand_over(timed)
            if timed == 0:
                first_timed = now
            if timed >= self.min_steps and now - first_timed >= self.budget_s:
                return
            self.tokens.append(batch.tokens.numel)
            self.starts.append(self.host.clock())
            yield batch
        self._hand_over(-1)

    def durations_ms(self) -> tuple[list[float], list[float]]:
        """Milliseconds at reference speed of the warm-up steps and of the timed steps."""
        ms = [self.host.ms(start, end) for start, end in zip(self.starts, self.ends)]
        return ms[: self.warmup], ms[self.warmup :]

    @property
    def timed_tokens(self) -> list[int]:
        """Tokens (batch x width) of each timed step."""
        return self.tokens[self.warmup : len(self.ends)]


# ----------------------------------------------------------------------
# Pipeline tail: perturb -> finalize, artifact checks
# ----------------------------------------------------------------------


def perturb_weights(compressor: ModelCompressor, rng: np.random.Generator) -> None:
    """Write every clustered weight as ``w + N(0, 1e-3)`` (bumps its version)."""
    for wrapper in compressor.wrapped.values():
        param = wrapper.inner.weight
        noise = rng.standard_normal(param.shape, dtype=np.float32)
        param.copy_(param._compute() + np.float32(1e-3) * noise)


def artifact_digest(report: CompressionReport) -> str:
    """blake2b over every palettized tensor's LUT and packed indices."""
    digest = hashlib.blake2b(digest_size=16)
    for name, tensor in report.palettized.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tensor.lut).tobytes())
        digest.update(np.ascontiguousarray(tensor.packed).tobytes())
    return digest.hexdigest()


def clustered_bits_ok(compressor: ModelCompressor, report: CompressionReport) -> bool:
    """Every clustered layer's artifact costs 3 +- 0.1 bits per weight."""
    return all(
        abs(report.palettized[name].bits_per_weight - BITS) <= 0.1
        for name in compressor.wrapped
    )


def finalize_tail(
    row: Row, compressor: ModelCompressor, model, rng, host: HostSpeed, tracer, rounds: int
) -> None:
    """What ends every pipeline: palettize the (changed) weights.

    The model is perturbed before each ``finalize()`` so the call never
    meets its own warm caches -- finalize after training always follows a
    weight write.  Untraced runs call it once, for the artifact; traced
    runs time ``rounds`` calls.
    """
    samples = []
    for _ in range(rounds):
        perturb_weights(compressor, rng)
        with tracer.span("core.compressor.finalize"):
            ms, report = host.timed(lambda: compressor.finalize(model))
        samples.append(ms)
    record_artifact(row, compressor, report, samples)


def record_artifact(
    row: Row, compressor: ModelCompressor, report: CompressionReport, samples: list[float]
) -> None:
    row.e2e["artifact_bytes"] = Metric(float(report.total_bytes))
    row.checks["bits_per_weight_is_3"] = clustered_bits_ok(compressor, report)
    clustered = [report.palettized[name] for name in compressor.wrapped]
    row.layers["core.compressor.finalize_ms"] = timing(samples)
    row.layers["core.palettize.bits_per_weight"] = Metric(
        8.0 * sum(p.nbytes for p in clustered) / sum(p.numel for p in clustered)
    )
