"""Workload ``deploy_serve_eval``: the 3-bit model, served and then scored.

Forward only: after warm-up no weight changes, so ``core.uniquify``,
``core.edkm`` and the saved-tensor pipeline do nothing (checked:
``uniquify_call_count()`` does not move in the timed region).

- Phase A -- ``repro.serve(model, tokenizer)`` with every default, driven
  closed-loop from one thread with 16 requests outstanding (twice the
  default batch, so the admission queue holds real waits) in bursts of 32
  requests; a slot is refilled as soon as any outstanding request
  resolves, and between bursts the server idles while the host's speed is
  sampled.  Batched last-token decode through the palette path and the
  scheduler: ``op_ms_*`` is whole-completion latency (the server does not
  stream, so there is no time to first token), ``work_per_s`` the median
  over bursts of generated tokens/s.
- Phase B -- ``evaluate_suites`` passes over the seven standard suites:
  batch-1 full-sequence scoring through the dense hard-weight path;
  ``alt_ms_p50`` is ms per scored item.  A K/V cache or a palette-kernel
  change moves A and must not move B.

Request ``i`` of a burst asks for ``BUDGETS[i % 5]`` new tokens of prompt
``i % 16``, and the server is handed a tokenizer whose end-of-sequence id no
token has (the ignore-EOS of serving benchmarks): the barely trained 3-bit
model would otherwise stop after 3 tokens under one seed and 16 under the next.
So the mix of output lengths is the same for every seed, while sequences
still retire at different times, the batcher refills slots one by one and
a decode step spans several length buckets.  Set-up decodes every prompt
offline to the largest budget; greedy decoding makes the first ``b`` tokens
of that text the completion a served request with budget ``b`` must equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro
import repro.tensor as rt
from repro.core import unpack_indices
from repro.core.uniquify import uniquify_call_count
from repro.data import standard_suites
from repro.evalsuite import EvalReport, evaluate_suites, score_cloze, score_multiple_choice
from repro.llm import ModelSpec, WordTokenizer, batched_last_logits, generate_batch
from repro.memory import global_ledger, global_registry
from repro.serving import PaletteLayout
from repro.serving.palette import palette_matmul
from repro.serving.queue import ServingError

import replays
from common import (
    BITS,
    QUICK_SPEC,
    SPEC,
    TAIL_Q,
    TRACED_FINALIZE_ROUNDS,
    HostSpeed,
    Inputs,
    Metric,
    Row,
    finalize_tail,
    make_inputs,
    peak_metrics,
    pretrained_model,
    start_timed_region,
    timed_setup,
    timing,
)
from tracer import Tracer

OUTSTANDING = 16
BURST = 32  # requests per burst: every burst sends the same ones, so bursts compare
SERVE_SHARE, EVAL_SHARE = 0.55, 0.4
WARM_REQUESTS = 8
STALL_S = 60.0  # what is outstanding this long into a burst counts as failed
BUDGETS = (4, 8, 12, 6, 10)  # new tokens asked for, cycled over requests; mean 8
REPLAY_BATCH = 8
PREFIX_LENGTHS = (4, 16, 48)  # decode-step replays: short, middling, near the window


class NeverStops(WordTokenizer):
    """The tokenizer the server decodes with: same ids, but no token ends a sequence."""

    eos_id = -1


@dataclass(frozen=True)
class Sizes:
    spec: ModelSpec
    n_corpus: int
    n_alpaca: int
    n_prompts: int
    eval_items: int


FULL = Sizes(SPEC, 256, 96, n_prompts=16, eval_items=2)
QUICK = Sizes(QUICK_SPEC, 48, 32, n_prompts=8, eval_items=2)


@dataclass
class Built:
    inputs: Inputs
    model: object
    compressor: object
    decoder: NeverStops
    prompts: list[str]
    reference: list[str]
    precluster_ms: float


def build(seed: int, sizes: Sizes, host: HostSpeed) -> Built:
    """Data, pretrain stand-in, ``repro.compress`` + ``precluster``, prompts."""
    inputs = make_inputs(seed, sizes.n_corpus, sizes.n_alpaca)
    model = pretrained_model(inputs, sizes.spec, seed, sizes.n_alpaca)
    compressor = repro.compress(model, bits=BITS)
    precluster_ms, _ = host.timed(compressor.precluster)
    # Short prompts: the first two (even i) or three (odd i) words of a
    # seeded instruction example (two in three) or corpus sentence.  The
    # lengths are fixed because decoding buckets rows by length: how many
    # prompts happened to be equally long moved tokens/s by 20 % from one
    # seed to the next.
    rng = np.random.default_rng(seed + 11)
    prompts = []
    for i in range(sizes.n_prompts):
        texts = inputs.corpus if i % 3 == 2 else [e.text for e in inputs.alpaca]
        words = texts[int(rng.integers(len(texts)))].split()
        prompts.append(" ".join(words[: 2 + i % 2]))
    decoder = NeverStops(inputs.tokenizer.words)
    model.eval()
    reference = generate_batch(model, decoder, prompts, max_new_tokens=max(BUDGETS))
    return Built(inputs, model, compressor, decoder, prompts, reference, precluster_ms)


def serve_warm(built: Built):
    """Start a default server and push one round of requests through it."""
    server = repro.serve(built.model, built.decoder)
    warm = [
        server.submit(prompt, max_new_tokens=BUDGETS[i % len(BUDGETS)])
        for i, prompt in enumerate(built.prompts[:WARM_REQUESTS])
    ]
    for request in warm:
        request.result(timeout=60)
    return server


def set_up(row: Row, seed: int, sizes: Sizes, host: HostSpeed):
    """One whole set-up, timed: everything before the first timed request."""

    def everything():
        built = build(seed, sizes, host)
        return built, serve_warm(built)

    return timed_setup(row, host, everything)


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool, host: HostSpeed):
    sizes = QUICK if quick else FULL
    row = Row(workload)
    tracer = Tracer(host.clock, workload, enabled=trace)
    with tracer.span(workload, seed=seed):
        built, server = set_up(row, seed, sizes, host)
        try:
            _run_main(row, tracer, built, server, seed, seconds, trace, sizes, host)
        finally:
            server.close()
        precluster = [built.precluster_ms]
        for _ in range(2):
            again, server = set_up(row, seed, sizes, host)
            server.close()
            precluster.append(again.precluster_ms)
    row.layers["core.compressor.precluster_ms"] = timing(precluster)
    return row, tracer


def _run_main(row, tracer, built, server, seed, seconds, trace, sizes, host) -> None:
    model = built.model
    start_timed_region()
    calls_before = uniquify_call_count()
    allocs_before = global_registry().get("gpu").alloc_count

    warm_stats = server.stats()  # the server's counters include its warm-up
    warm_tiles = server.tile_cache.stats.to_dict()

    with tracer.span("timed"):
        served, failed, bursts = _serve_phase(tracer, built, server, seconds, host)
        stats = server.stats()
        tiles = server.tile_cache.stats.to_dict()
        server.close()  # restores the dense eval path for phase B
        passes, accuracies, n_items = _eval_phase(tracer, built, seconds, trace, sizes, host)
    uniquify_calls = uniquify_call_count() - calls_before
    peak_metrics(row)

    # A burst is the repeatable unit: its latency percentiles are taken
    # inside it and the run reports their median over bursts, which one slow
    # second of the host moves less than a percentile of the pooled requests.
    by_burst = [
        [host.ms(r.submitted_at, r.finished_at) for _, r in done] for _, _, done in bursts if done
    ]
    latencies = [ms for burst in by_burst for ms in burst]
    # max(.., 1): a model that answers every prompt with EOS must not crash the report.
    tokens = max(sum(r.tokens_generated for _, r in served), 1)
    per_item = [ms / n_items for ms in passes]
    row.attempted = len(served) + failed + n_items * len(passes)
    row.failed = failed
    row.e2e["op_ms_p50"] = timing([timing(burst).value for burst in by_burst])
    row.e2e[f"op_ms_p{TAIL_Q}"] = timing([timing(burst, TAIL_Q).value for burst in by_burst])
    row.e2e["work_per_s"] = timing(
        [
            sum(r.tokens_generated for _, r in done) / (host.ms(start, end) / 1e3)
            for start, end, done in bursts
        ]
    )
    row.e2e["alt_ms_p50"] = timing(per_item)

    row.checks["served_equals_offline_generate"] = failed == 0 and all(
        request.result(timeout=0)
        == " ".join(built.reference[index].split()[: request.max_new_tokens])
        for index, request in served
    )
    row.checks["eval_accuracy_repeats"] = len(set(accuracies)) == 1
    row.checks["no_uniquify_after_warmup"] = uniquify_calls == 0
    row.checks["no_request_rejected"] = stats.rejected_admission + stats.rejected_deadline == 0

    layers = row.layers
    waits = [host.ms(r.submitted_at, r.scheduled_at) for _, r in served]
    service = [host.ms(r.scheduled_at, r.finished_at) for _, r in served]
    ops = len(served) + len(passes)
    layers["core.uniquify.calls_per_step"] = Metric(uniquify_calls / ops, ops)
    layers["serving.queue.wait_ms_p50"] = timing(waits)
    layers["serving.queue.wait_ms_p95"] = timing(waits, 95)
    layers["serving.queue.rejected"] = Metric(
        float(stats.rejected_admission + stats.rejected_deadline)
    )
    decode_steps = max(stats.decode_steps - warm_stats.decode_steps, 1)
    decoded_rows = (
        stats.mean_batch_occupancy * stats.decode_steps
        - warm_stats.mean_batch_occupancy * warm_stats.decode_steps
    )
    layers["serving.batcher.mean_occupancy"] = Metric(decoded_rows / decode_steps, decode_steps)
    layers["serving.batcher.decode_steps"] = Metric(float(decode_steps))
    layers["serving.batcher.tokens_per_step"] = Metric(tokens / decode_steps, decode_steps)
    layers["serving.server.service_ms_p50"] = timing(service)
    layers["serving.server.latency_ms_p95"] = timing(latencies, 95)
    layers["serving.server.step_failures"] = Metric(
        float(stats.step_failures - warm_stats.step_failures)
    )
    tile_hits = tiles["hits"] - warm_tiles["hits"]
    tile_visits = tile_hits + tiles["misses"] - warm_tiles["misses"]
    layers["serving.palette.tile_hit_ratio"] = Metric(tile_hits / max(tile_visits, 1), tile_visits)
    # Computed by the server from tensor sizes, not read from hardware.
    layers["serving.palette.weight_bytes_read_per_token"] = Metric(
        (stats.weight_bytes_read - warm_stats.weight_bytes_read) / tokens
    )
    layers["evalsuite.harness.items_per_s"] = Metric(
        1e3 / row.e2e["alt_ms_p50"].value, len(passes)
    )
    layers["evalsuite.harness.mean_accuracy"] = Metric(accuracies[0], len(accuracies))
    layers["memory.tracker.gpu_allocs_per_step"] = Metric(
        (global_registry().get("gpu").alloc_count - allocs_before) / ops, ops
    )
    layers["memory.ledger.transactions_per_step"] = Metric(len(global_ledger()) / ops, ops)
    layers["memory.ledger.bytes_per_step"] = Metric(global_ledger().total_bytes() / ops, ops)

    if trace:
        layers["trace_overhead_pct"] = Metric(
            100.0 * (timing(passes[1::2]).value / timing(passes[0::2]).value - 1.0),
            len(passes[1::2]),
        )
        for kind, key in (("multiple_choice", "mc"), ("cloze", "cloze")):
            spans = [s for s in tracer.spans if s["name"] == f"evalsuite.harness.{kind}"]
            layers[f"evalsuite.harness.{key}_items_per_s"] = Metric(
                sum(s["attrs"]["items"] for s in spans)
                / sum(host.ms(s["start"], s["end"]) / 1e3 for s in spans),
                len(spans),
            )
        with tracer.span("replay"):
            replay = replays.Replays(row, tracer, host, built.compressor)
            _replays(replay, built, seed, row.e2e["work_per_s"].value)
            replay.palettize(model)
    rng = np.random.default_rng(seed + 13)
    rounds = TRACED_FINALIZE_ROUNDS if trace else 1
    finalize_tail(row, built.compressor, model, rng, host, tracer, rounds)


def _serve_phase(tracer, built, server, seconds, host):
    """Bursts of ``BURST`` requests, ``OUTSTANDING`` in flight, for the serve share.

    Between two bursts the server is idle and the client samples the host's
    speed: sampled beside a running scheduler thread the kernel would fight
    it for a core whenever the host has only one to give, and read slow
    exactly when serving does not.
    """
    served, failed, bursts = [], 0, []
    clock = host.clock
    with tracer.span("serving.phase", outstanding=OUTSTANDING, burst=BURST):
        host.sample()
        phase_start = clock()
        while not failed and clock() - phase_start < SERVE_SHARE * seconds:
            with tracer.span("serving.burst"):
                start = clock()
                done, lost = _burst(built, server, clock)
                end = clock()
                for lane, (_, r) in enumerate(done if tracer.enabled else (), start=1):
                    span = tracer.add(
                        "serving.request", r.submitted_at, r.finished_at, tracer.current,
                        lane=lane, request=r.id, tokens=r.tokens_generated,
                    )  # fmt: skip
                    stamps = (r.submitted_at, r.scheduled_at, r.finished_at)
                    tracer.add("serving.queue.wait", *stamps[:2], span, lane=lane)
                    tracer.add("serving.server.service", *stamps[1:], span, lane=lane)
            host.sample()
            served += done
            failed += lost
            bursts.append((start, end, done))
    return served, failed, bursts


def _burst(built, server, clock):
    """Requests 0 .. ``BURST`` - 1, closed loop: the served ``(prompt, request)`` pairs, the failures."""
    served, failed, pending, submitted = [], 0, [], 0
    deadline = clock() + STALL_S
    while submitted < BURST or pending:
        while len(pending) < OUTSTANDING and submitted < BURST:
            index = submitted % len(built.prompts)
            budget = BUDGETS[submitted % len(BUDGETS)]
            submitted += 1
            try:
                request = server.submit(built.prompts[index], max_new_tokens=budget)
            except ServingError:
                failed += 1  # refused: counts as missing any latency
                continue
            pending.append((index, request))
        # Sleep until the oldest request resolves, then replace every one
        # that has.  The eight requests queued behind the batch keep it full
        # meanwhile (36 decode steps of 7 rows per burst, whatever the
        # thread timing), and a client that polled instead would take the
        # interpreter lock from the scheduler thread every few milliseconds:
        # bursts 6 % slower and their times half again as scattered.
        if pending:
            try:
                pending[0][1].result(timeout=max(deadline - clock(), 0.0))
            except TimeoutError:
                return served, failed + len(pending)  # a wedged server must not wedge the benchmark
            except ServingError:
                pass  # counted below
        for entry in [entry for entry in pending if entry[1].done]:
            pending.remove(entry)
            if entry[1].ok:
                served.append(entry)
            else:
                failed += 1
    return served, failed


def _eval_phase(tracer, built, seconds, trace, sizes, host):
    """Whole passes over the suites for the eval share; at least two."""
    tokenizer, model = built.inputs.tokenizer, built.model
    suites = standard_suites(built.inputs.world, n_items=sizes.eval_items)
    n_items = sum(len(suite.items) for suite in suites)
    passes, accuracies = [], []
    start = host.clock()
    while len(passes) < 2 or host.clock() - start < EVAL_SHARE * seconds:
        if trace and len(passes) % 2 == 1:
            ms, report = host.timed(lambda: _traced_pass(tracer, model, tokenizer, suites))
        else:
            ms, report = host.timed(lambda: evaluate_suites(model, tokenizer, suites, rt.GPU))
        passes.append(ms)
        accuracies.append(report.mean_accuracy)
    return passes, accuracies, n_items


def _traced_pass(tracer, model, tokenizer, suites) -> EvalReport:
    """``evaluate_suites`` with a span around each suite's scorer."""
    model.eval()
    report = EvalReport()
    with tracer.span("evalsuite.harness.pass"):
        for suite in suites:
            scorer = score_cloze if suite.kind == "cloze" else score_multiple_choice
            with tracer.span(
                f"evalsuite.harness.{suite.kind}", suite=suite.name, items=len(suite.items)
            ):
                report.results[suite.name] = scorer(model, tokenizer, suite, rt.GPU)
    return report


def _replays(replay: replays.Replays, built: Built, seed: int, served_tokens_per_s) -> None:
    """Offline decode, palette kernel vs dense gemm, decode step vs prefix length."""
    layers = replay.row.layers
    with replay.tracer.span("llm.generate.offline", prompts=len(built.prompts)):
        ms, offline = replay.host.timed(
            lambda: generate_batch(
                built.model, built.decoder, built.prompts, max_new_tokens=max(BUDGETS)
            )
        )
    offline_tokens_per_s = max(sum(len(text.split()) for text in offline), 1) / (ms / 1e3)
    layers["llm.generate.offline_tokens_per_s"] = Metric(offline_tokens_per_s)
    layers["serving.server.overhead_pct"] = Metric(
        100.0 * (1.0 - served_tokens_per_s / offline_tokens_per_s)
    )

    rng = np.random.default_rng(seed + 17)
    name, wrapper = max(
        built.compressor.wrapped.items(), key=lambda item: item[1].inner.weight.numel
    )
    artifact = wrapper.palettize()
    indices = unpack_indices(artifact.packed, artifact.bits, artifact.numel).reshape(artifact.shape)
    layout = PaletteLayout.build(artifact.lut, indices)
    dense = artifact.lut[indices]
    x = rng.standard_normal((REPLAY_BATCH, artifact.shape[1]), dtype=np.float32)
    layers["serving.palette.matmul_ms"] = replay.median_ms(
        "serving.palette.matmul", name, lambda: palette_matmul(x, layout),
        repeats=5, batch=REPLAY_BATCH,
    )  # fmt: skip
    layers["serving.palette.dense_gemm_ms"] = replay.median_ms(
        "serving.palette.dense_gemm", name, lambda: x @ dense.T, repeats=5, batch=REPLAY_BATCH
    )

    # The O(prefix) recompute a K/V cache would flatten.
    built.model.eval()
    for length in PREFIX_LENGTHS:
        windows = rng.integers(4, built.decoder.vocab_size, size=(REPLAY_BATCH, length)).tolist()
        layers[f"llm.generate.step_ms_len{length}"] = replay.median_ms(
            "llm.generate.step", f"prefix{length}",
            lambda: batched_last_logits(built.model, windows),
            repeats=5, prefix=length, batch=REPLAY_BATCH,
        )  # fmt: skip
