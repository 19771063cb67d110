"""Workloads ``finetune_mus`` and ``finetune_offload``: eDKM train-time clustering.

Same model, batches and seed; only the paper's M/U/S flags differ.
``finetune_mus`` is the headline configuration (marshal + uniquify + shard
over eight learners); ``finetune_offload`` is Table 2's baseline row (dense
DKM, naive offload), which bypasses marshal, shard and the factored assign.

Three models are set up per run from the same seed, which is also what
gives ``setup_s`` three samples:

- *main* -- trained inside the saved-tensor pipeline for the timed steps
  (``op_ms_*``, ``work_per_s``, the byte peaks), then palettized;
- *alt* -- the same steps with ``pipeline=None`` (``alt_ms_p50``: the step
  the memory pipeline is a surcharge on);
- *cross* -- the first steps again through the other training loop.

Untraced runs train *main* with ``train_causal_lm`` and *cross* with the
benchmark's stepped loop; traced runs swap them, so every run checks that
the loop carrying the spans is bit-identical in losses to the library's.

Byte peaks and every per-step count are read after exactly
``count_steps`` timed steps, so they depend on the seed alone and repeat
bit for bit however many steps the host then fits into the run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

import repro.tensor as rt
from repro.core import DKMConfig, EDKMConfig, ModelCompressor, SavedTensorPipeline
from repro.core.uniquify import uniquify_call_count
from repro.data import alpaca_batches
from repro.distributed import LearnerGroup
from repro.llm import FinetuneConfig, ModelSpec, train_causal_lm
from repro.memory import global_ledger, global_registry
from repro.nn import cross_entropy
from repro.optim import AdamW, clip_grad_norm_

import replays
from common import (
    BATCH_SIZE,
    BITS,
    QUICK_SPEC,
    SPEC,
    TAIL_Q,
    TRACED_FINALIZE_ROUNDS,
    HostSpeed,
    Metric,
    Row,
    TimedBatches,
    finalize_tail,
    make_inputs,
    peak_metrics,
    pretrained_model,
    start_timed_region,
    timed_setup,
    timing,
)
from tracer import Tracer

FINETUNE = FinetuneConfig(lr=1e-3)
OP_SHARE, ALT_SHARE = 0.65, 0.3


@dataclass(frozen=True)
class Sizes:
    spec: ModelSpec
    n_corpus: int
    n_alpaca: int
    n_pretrain_alpaca: int
    warmup: int
    check_steps: int

    @property
    def count_steps(self) -> int:
        """Timed steps the loss check, the byte peaks and the counts cover."""
        return self.check_steps - self.warmup


FULL = Sizes(SPEC, n_corpus=192, n_alpaca=2400, n_pretrain_alpaca=64, warmup=2, check_steps=10)
QUICK = Sizes(QUICK_SPEC, n_corpus=32, n_alpaca=320, n_pretrain_alpaca=16, warmup=1, check_steps=4)


def edkm_config(workload: str) -> EDKMConfig:
    """Only the paper's own ablation flags -- no engine knob is set."""
    if workload == "finetune_mus":
        return EDKMConfig(group=LearnerGroup(8))
    return EDKMConfig(marshal=False, uniquify=False, shard=False)


@dataclass
class Built:
    model: object
    compressor: ModelCompressor
    pipeline: SavedTensorPipeline
    batches: list


def build(workload: str, seed: int, sizes: Sizes) -> Built:
    """Data, pretrain stand-in, ``compress()`` wrapping and the batch list."""
    inputs = make_inputs(seed, sizes.n_corpus, sizes.n_alpaca)
    model = pretrained_model(inputs, sizes.spec, seed, sizes.n_pretrain_alpaca)
    config = edkm_config(workload)
    compressor = ModelCompressor(DKMConfig(bits=BITS, iters=4), edkm_config=config)
    compressor.compress(model)
    batches = list(
        alpaca_batches(inputs.alpaca, inputs.tokenizer, BATCH_SIZE, rt.GPU, seed=seed + 7)
    )
    return Built(model, compressor, SavedTensorPipeline(config), batches)


def stepped_loop(model, batches, pipeline, tracer: Tracer, first_traced: int | None) -> list[float]:
    """``train_causal_lm``'s recipe, opened up so spans fit between its parts.

    With ``first_traced`` set, odd steps from that index on are traced and
    even ones are not, so tracing overhead is the difference of two medians
    taken under the same conditions.
    """
    optimizer = AdamW(
        model.parameters(), lr=FINETUNE.lr, betas=FINETUNE.betas, weight_decay=FINETUNE.weight_decay
    )
    losses = []
    model.train()
    was_enabled = tracer.enabled
    for index, batch in enumerate(batches):
        tracer.enabled = first_traced is not None and index >= first_traced and index % 2 == 1
        with tracer.span("llm.finetune.step", step=index):
            scope = pipeline.step() if pipeline is not None else contextlib.nullcontext()
            with scope:
                with tracer.span("llm.finetune.forward"):
                    logits = model(batch.tokens)
                    loss = cross_entropy(logits, batch.targets)
                optimizer.zero_grad()
                with tracer.span("llm.finetune.backward"):
                    loss.backward()
            with tracer.span("llm.finetune.optim"):
                clip_grad_norm_(model.parameters(), FINETUNE.grad_clip)
                optimizer.step()
        losses.append(loss.item())
    tracer.enabled = was_enabled
    return losses


def library_loop(model, batches, pipeline) -> list[float]:
    return train_causal_lm(model, batches, FINETUNE, pipeline=pipeline).losses


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool, host: HostSpeed):
    sizes = QUICK if quick else FULL
    row = Row(workload)
    tracer = Tracer(host.clock, workload, enabled=trace)
    with tracer.span(workload, seed=seed):
        losses = _run_main(row, tracer, workload, seed, seconds, trace, sizes, host)
        alt_losses = _run_alt(row, workload, seed, seconds, sizes, host)
        cross_losses = _run_cross(row, tracer, workload, seed, trace, sizes, host)
    n = sizes.check_steps
    row.checks["losses_bit_identical_across_loops"] = (
        losses[:n] == alt_losses[:n] == cross_losses[:n] and len(losses) >= n
    )
    # Fixed steps, so the verdict depends on the seed and not on how many
    # steps the host fitted into the run.
    row.checks["loss_decreased"] = sum(losses[n // 2 : n]) < sum(losses[: n // 2])
    row.layers["core.offload.overhead_ms_per_step"] = Metric(
        row.e2e["op_ms_p50"].value - row.e2e["alt_ms_p50"].value
    )
    return row, tracer


PIPELINE_COUNTERS = (
    "tensors_packed",
    "copies_made",
    "bytes_copied",
    "copies_avoided",
    "bytes_avoided",
    "gathers",
    "graph_nodes_visited",
)


def _run_main(row, tracer, workload, seed, seconds, trace, sizes, host) -> list[float]:
    built = timed_setup(row, host, lambda: build(workload, seed, sizes))
    stats = built.pipeline.stats
    before = {}

    def on_start() -> None:
        start_timed_region()
        before["uniquify"] = uniquify_call_count()
        before["fastpath"] = built.compressor.fastpath_report().total
        before["gpu_allocs"] = global_registry().get("gpu").alloc_count
        before["probes"] = stats.probes("graph")
        before.update({name: getattr(stats, name) for name in PIPELINE_COUNTERS})

    def on_counted() -> None:
        peak_metrics(row)
        _counter_metrics(row, workload, built, before, sizes.count_steps)

    feed = TimedBatches(
        built.batches,
        host,
        sizes.warmup,
        budget_s=OP_SHARE * seconds,
        min_steps=sizes.count_steps,
        hooks={0: on_start, sizes.count_steps: on_counted},
    )
    with tracer.span("timed"):
        if trace:
            losses = stepped_loop(built.model, feed, built.pipeline, tracer, sizes.warmup)
        else:
            losses = library_loop(built.model, feed, built.pipeline)
    warmup_ms, step_ms = feed.durations_ms()
    row.warmup_s = sum(warmup_ms) / 1e3
    row.attempted += len(step_ms)
    row.e2e["op_ms_p50"] = timing(step_ms)
    row.e2e[f"op_ms_p{TAIL_Q}"] = timing(step_ms, TAIL_Q)
    row.e2e["work_per_s"] = timing(
        [tokens / (ms / 1e3) for tokens, ms in zip(feed.timed_tokens, step_ms)]
    )
    if trace:
        odd = [ms for i, ms in enumerate(step_ms) if (i + sizes.warmup) % 2 == 1]
        even = [ms for i, ms in enumerate(step_ms) if (i + sizes.warmup) % 2 == 0]
        row.layers["trace_overhead_pct"] = Metric(
            100.0 * (timing(odd).value / timing(even).value - 1.0), len(odd)
        )
        for part in ("forward", "backward", "optim"):
            row.layers[f"llm.finetune.{part}_ms"] = timing(
                [host.ms(*span) for span in tracer.intervals(f"llm.finetune.{part}")]
            )

    rng = np.random.default_rng(seed + 13)
    rounds = TRACED_FINALIZE_ROUNDS if trace else 1
    finalize_tail(row, built.compressor, built.model, rng, host, tracer, rounds)
    if trace:
        with tracer.span("replay"):
            _replays(row, tracer, workload, built, host)
    return losses


def _counter_metrics(row: Row, workload: str, built: Built, before: dict, steps: int) -> None:
    """Counts the library already keeps, over the first ``steps`` timed steps."""
    stats = built.pipeline.stats
    ledger = global_ledger()
    delta = {name: getattr(stats, name) - before[name] for name in PIPELINE_COUNTERS}
    probes = stats.probes("graph") - before["probes"]
    uniquify_calls = uniquify_call_count() - before["uniquify"]
    fast = built.compressor.fastpath_report().total.diff(before["fastpath"])
    gpu_allocs = global_registry().get("gpu").alloc_count - before["gpu_allocs"]

    def per_step(value: float) -> Metric:
        return Metric(value / steps, steps)

    def ratio(part: int, whole: int) -> Metric:
        return Metric(part / whole if whole else 0.0, whole)

    layers = row.layers
    layers["core.uniquify.calls_per_step"] = per_step(uniquify_calls)
    layers["core.fastpath.uniquify_hit_ratio"] = ratio(
        fast.uniquify_hits, fast.uniquify_hits + fast.uniquify_misses
    )
    layers["core.fastpath.table_hit_ratio"] = ratio(
        fast.table_hits, fast.table_hits + fast.table_misses
    )
    layers["core.offload.tensors_packed_per_step"] = per_step(delta["tensors_packed"])
    layers["core.offload.bytes_copied_per_step"] = per_step(delta["bytes_copied"])
    layers["core.marshal.hit_ratio"] = ratio(delta["copies_avoided"], delta["tensors_packed"])
    layers["core.marshal.bytes_avoided_per_step"] = per_step(delta["bytes_avoided"])
    layers["core.marshal.nodes_visited_per_probe"] = ratio(delta["graph_nodes_visited"], probes)
    layers["distributed.collective.gathers_per_step"] = per_step(delta["gathers"])
    layers["distributed.collective.shard_bytes_per_step"] = per_step(
        ledger.total_bytes(tag="offload-shard")
    )
    layers["distributed.collective.gather_bytes_per_step"] = per_step(
        ledger.total_bytes(tag="backward-gather")
    )
    layers["memory.tracker.gpu_allocs_per_step"] = per_step(gpu_allocs)
    layers["memory.ledger.transactions_per_step"] = per_step(len(ledger))
    layers["memory.ledger.bytes_per_step"] = per_step(ledger.total_bytes())

    row.checks["pack_accounting_reconciles"] = (
        delta["copies_made"] + delta["copies_avoided"] == delta["tensors_packed"]
    )
    row.checks["one_uniquify_per_layer_per_step"] = uniquify_calls == steps * len(
        built.compressor.wrapped
    )
    exercised = delta["copies_avoided"] > 0 and delta["gathers"] > 0
    bypassed = delta["copies_avoided"] == 0 and delta["gathers"] == 0
    if workload == "finetune_mus":
        row.checks["marshal_and_shard_exercised"] = exercised
    else:
        row.checks["marshal_and_shard_bypassed"] = bypassed


def _replays(row: Row, tracer: Tracer, workload: str, built: Built, host: HostSpeed) -> None:
    replay = replays.Replays(row, tracer, host, built.compressor)
    replay.uniquify()
    replay.refine()
    if workload == "finetune_mus":
        replay.edkm_assign()
        replay.shard_gather(built.pipeline.config.group)
    else:
        replay.cluster_dense()
    replay.palettize(built.model)


def _run_alt(row, workload, seed, seconds, sizes, host) -> list[float]:
    """The same steps with ``pipeline=None``: saved tensors stay on the GPU."""
    built = timed_setup(row, host, lambda: build(workload, seed, sizes))
    feed = TimedBatches(
        built.batches,
        host,
        sizes.warmup,
        budget_s=ALT_SHARE * seconds,
        min_steps=sizes.count_steps,
    )
    losses = library_loop(built.model, feed, None)
    step_ms = feed.durations_ms()[1]
    row.attempted += len(step_ms)
    row.e2e["alt_ms_p50"] = timing(step_ms)
    return losses


def _run_cross(row, tracer, workload, seed, trace, sizes, host) -> list[float]:
    """The first steps through whichever loop *main* did not use."""
    built = timed_setup(row, host, lambda: build(workload, seed, sizes))
    batches = built.batches[: sizes.check_steps]
    if trace:
        return library_loop(built.model, batches, built.pipeline)
    return stepped_loop(built.model, batches, built.pipeline, tracer, None)
