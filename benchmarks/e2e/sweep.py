"""Workload ``compress_sweep``: no-grad clustering sweeps and palettization.

No autograd and no saved-tensor pipeline: a stack of wide Linears (|W| far
above the number of distinct 16-bit patterns -- the regime uniquification
is for) under a default ``ModelCompressor``.  After one ``precluster()``
every round writes all weights, then runs ``refine_all()`` cold (every step
cache misses: ``op_ms_*``), ``refine_all()`` warm (every step cache hits:
``alt_ms_p50``) and ``finalize()``.  Cold and warm use the same layers
oppositely, so a cache that buys warm speed by taxing cold sweeps shows.

The stack is set up three times from the same seed (``setup_s`` has three
samples): built, preclustered and warmed with two rounds, which must leave
the same artifact all three times.  Byte peaks and per-round counts are read
after the first two timed rounds, so they depend on the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.tensor as rt
from repro.core import DKMConfig, ModelCompressor
from repro.core.uniquify import uniquify_call_count
from repro.memory import global_ledger, global_registry
from repro.nn import Linear, Module

import replays
from common import (
    BITS,
    TAIL_Q,
    HostSpeed,
    Metric,
    Row,
    artifact_digest,
    peak_metrics,
    perturb_weights,
    record_artifact,
    start_timed_region,
    timed_setup,
    timing,
)
from tracer import Tracer


@dataclass(frozen=True)
class Sizes:
    dim: int
    hidden: int
    n_square: int
    n_wide: int


FULL = Sizes(dim=512, hidden=1376, n_square=8, n_wide=4)
QUICK = Sizes(dim=64, hidden=160, n_square=3, n_wide=2)
WARM_ROUNDS = 2  # rounds that end every set-up
COUNT_ROUNDS = 2  # timed rounds the byte peaks and the counts cover


class Stack(Module):
    """``n_square`` x Linear(dim, dim) + ``n_wide`` x Linear(dim, hidden); never called."""

    def __init__(self, sizes: Sizes, rng: np.random.Generator) -> None:
        super().__init__()
        for i in range(sizes.n_square):
            setattr(self, f"square{i}", Linear(sizes.dim, sizes.dim, bias=False, rng=rng))
        for i in range(sizes.n_wide):
            setattr(self, f"wide{i}", Linear(sizes.dim, sizes.hidden, bias=False, rng=rng))


@dataclass
class Built:
    stack: Stack
    compressor: ModelCompressor
    rng: np.random.Generator  # the weight-perturbation noise, advanced by every round
    precluster_ms: float = 0.0
    warm_digest: str = ""


def build(seed: int, sizes: Sizes, host: HostSpeed) -> Built:
    """Stack, ``compress()``, ``precluster()`` and the warm-up rounds."""
    stack = Stack(sizes, np.random.default_rng(seed))
    stack.to(rt.GPU)
    compressor = ModelCompressor(DKMConfig(bits=BITS, iters=4))
    compressor.compress(stack)
    built = Built(stack, compressor, np.random.default_rng(seed + 13))
    built.precluster_ms, _ = host.timed(compressor.precluster)
    unrecorded = Tracer(host.clock, "warm-up", enabled=False)
    for _ in range(WARM_ROUNDS):
        report = sweep_round(built, host, unrecorded)[1]
    built.warm_digest = artifact_digest(report)
    return built


def sweep_round(built: Built, host: HostSpeed, tracer: Tracer):
    """Write every layer, then cold sweep, warm sweep, finalize; ms of each."""
    perturb_weights(built.compressor, built.rng)
    compressor, times = built.compressor, []
    with tracer.span("round"):
        for name, cache, call in (
            ("core.compressor.refine_all", "cold", compressor.refine_all),
            ("core.compressor.refine_all", "warm", compressor.refine_all),
            ("core.compressor.finalize", "warm", lambda: compressor.finalize(built.stack)),
        ):
            host.sample()
            with tracer.span(name, cache=cache):
                start = host.clock()
                result = call()
                end = host.clock()
            times.append((start, end))
        host.sample()
    return [host.ms(start, end) for start, end in times], result


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool, host: HostSpeed):
    sizes = QUICK if quick else FULL
    row = Row(workload)
    tracer = Tracer(host.clock, workload, enabled=trace)
    with tracer.span(workload, seed=seed):
        built = timed_setup(row, host, lambda: build(seed, sizes, host))
        _run_main(row, tracer, built, seconds, trace, host)
        repeats = [timed_setup(row, host, lambda: build(seed, sizes, host)) for _ in range(2)]
    row.layers["core.compressor.precluster_ms"] = timing(
        [b.precluster_ms for b in [built] + repeats]
    )
    row.checks["artifact_digest_repeats"] = all(
        b.warm_digest == built.warm_digest for b in repeats
    )
    return row, tracer


def _run_main(row, tracer, built, seconds, trace, host) -> None:
    compressor = built.compressor
    n_layers = len(compressor.wrapped)
    n_weights = sum(w.inner.weight.numel for w in compressor.wrapped.values())
    start_timed_region()
    calls_before = uniquify_call_count()
    fast_before = compressor.fastpath_report().total
    allocs_before = global_registry().get("gpu").alloc_count

    cold, warm, final = [], [], []
    with tracer.span("timed"):
        start = host.clock()
        while len(cold) < COUNT_ROUNDS or host.clock() - start < seconds:
            tracer.enabled = trace and len(cold) % 2 == 1
            (c, w, f), report = sweep_round(built, host, tracer)
            cold.append(c)
            warm.append(w)
            final.append(f)
            if len(cold) == COUNT_ROUNDS:
                peak_metrics(row)
                _counter_metrics(
                    row, compressor, len(cold), calls_before, fast_before, allocs_before
                )
        tracer.enabled = trace

    row.attempted = len(cold)
    row.e2e["op_ms_p50"] = timing(cold)
    row.e2e[f"op_ms_p{TAIL_Q}"] = timing(cold, TAIL_Q)
    row.e2e["alt_ms_p50"] = timing(warm)
    row.e2e["work_per_s"] = timing([n_weights / (ms / 1e3) for ms in cold])
    record_artifact(row, compressor, report, final)

    layers = row.layers
    layers["core.compressor.layers_per_s"] = Metric(n_layers / (row.e2e["op_ms_p50"].value / 1e3))
    if trace:
        totals = [c + w + f for c, w, f in zip(cold, warm, final)]
        layers["trace_overhead_pct"] = Metric(
            100.0 * (timing(totals[1::2]).value / timing(totals[0::2]).value - 1.0),
            len(totals[1::2]),
        )
        with tracer.span("replay"):
            replay = replays.Replays(row, tracer, host, compressor)
            replay.uniquify()
            cold_by_layer = replay.refine()
            replay.palettize(built.stack)
        layer_sum = sum(cold_by_layer.values())
        # What the compressor's engine adds on top of the clusterers it calls.
        layers["core.compressor.dispatch_overhead_ms"] = Metric(
            row.e2e["op_ms_p50"].value - layer_sum
        )
        layers["core.compressor.slowest_layer_share"] = Metric(
            max(cold_by_layer.values()) / layer_sum
        )


def _counter_metrics(row, compressor, rounds, calls_before, fast_before, allocs_before) -> None:
    """Counts the library already keeps, over the first ``rounds`` rounds."""
    n_layers = len(compressor.wrapped)
    calls = uniquify_call_count() - calls_before
    fast = compressor.fastpath_report().total.diff(fast_before)
    lookups = fast.table_hits + fast.table_misses
    layers = row.layers
    layers["core.uniquify.calls_per_step"] = Metric(calls / rounds, rounds)
    layers["core.fastpath.uniquify_hit_ratio"] = Metric(
        fast.uniquify_hits / (fast.uniquify_hits + fast.uniquify_misses)
    )
    layers["core.fastpath.table_hit_ratio"] = Metric(fast.table_hits / lookups if lookups else 0.0)
    layers["memory.tracker.gpu_allocs_per_step"] = Metric(
        (global_registry().get("gpu").alloc_count - allocs_before) / rounds, rounds
    )
    layers["memory.ledger.transactions_per_step"] = Metric(len(global_ledger()) / rounds, rounds)
    layers["memory.ledger.bytes_per_step"] = Metric(global_ledger().total_bytes() / rounds, rounds)
    # Cold misses once per layer; warm and finalize then hit three times.
    row.checks["one_uniquify_per_layer_per_round"] = (
        calls == rounds * n_layers
        and fast.uniquify_misses == rounds * n_layers
        and fast.uniquify_hits == 3 * rounds * n_layers
    )
