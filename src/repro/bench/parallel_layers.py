"""Parallel compression-engine benchmark: serial vs threaded layer fan-out.

Two claims of the parallel engine (ISSUE 2) are measured:

- **layer fan-out**: a multi-layer ``precluster`` sweep (per-layer refine +
  hard assign) through ``ModelCompressor`` with ``num_workers=1`` vs a
  thread pool, asserting the parallel results -- centroids, assignments,
  and per-layer step-cache hit/miss counters -- are bit-identical to the
  serial sweep;
- **chunked dense fallback**: ``DKMClusterer.cluster_dense`` on a layer
  whose monolithic ``O(|W|·|C|)`` composition is refused up front
  (:class:`MemoryError` via ``dense_saved_bytes_limit``), shown to run
  under ``row_chunk`` and to agree with the eDKM unique-space forward.

Bit-exactness and the chunked-fallback gates always apply; the >= 1.5x
fan-out floor is armed only on a full-size run on a host with at least
:data:`MIN_CORES_FOR_SPEEDUP_GATE` CPUs (a thread pool cannot beat serial
on fewer cores, and ``--quick`` shapes are too small to time).  Kept out
of tier-1 -- timing gates do not belong in the correctness suite;
``python -m repro.bench parallel`` writes ``BENCH_parallel.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.bench.backends import (
    _layer_stats,
    _reset,
    _results_identical,
    build_stack_compressor,
)
from repro.core.compressor import ModelCompressor
from repro.core.config import DKMConfig
from repro.core.dkm import DKMClusterer
from repro.core.edkm import edkm_cluster
from repro.tensor.dtype import bfloat16
from repro.tensor.tensor import Tensor

MIN_CORES_FOR_SPEEDUP_GATE = 4
MIN_SPEEDUP = 1.5


@dataclass
class ParallelSweepRow:
    """One serial-vs-parallel comparison of a full precluster sweep."""

    n_layers: int
    weights_per_layer: int
    workers: int
    serial_seconds: float
    parallel_seconds: float
    bit_identical: bool
    stats_identical: bool

    @property
    def speedup(self) -> float:
        return self.serial_seconds / max(self.parallel_seconds, 1e-12)


@dataclass
class ChunkedDenseRow:
    """The dense-ablation scaling demonstration."""

    n_weights: int
    n_clusters: int
    row_chunk: int
    monolithic_raises: bool
    monolithic_error: str
    chunked_seconds: float
    matches_edkm_forward: bool


@dataclass
class ParallelBenchResult:
    cpu_count: int = 0
    speedup_gate_active: bool = False
    sweeps: list[ParallelSweepRow] = field(default_factory=list)
    chunked: list[ChunkedDenseRow] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        sweeps = []
        for row in self.sweeps:
            d = asdict(row)
            d["speedup"] = row.speedup
            sweeps.append(d)
        return {
            "benchmark": "parallel_layers",
            "cpu_count": self.cpu_count,
            "sweeps": sweeps,
            "chunked_dense": [asdict(row) for row in self.chunked],
            "min_speedup": MIN_SPEEDUP,
            "speedup_gate_active": self.speedup_gate_active,
        }

    def render(self) -> str:
        lines = [
            f"{_sweep_label(row):<36} serial {row.serial_seconds:.4f}s  "
            f"parallel({row.workers}w) {row.parallel_seconds:.4f}s  "
            f"speedup {row.speedup:.2f}x  bit-identical={row.bit_identical}  "
            f"stats-identical={row.stats_identical}"
            for row in self.sweeps
        ]
        if not self.speedup_gate_active:
            lines.append(
                f"speedup gate skipped (cpu_count={self.cpu_count}; armed on "
                f"full-size runs with >= {MIN_CORES_FOR_SPEEDUP_GATE} CPUs)"
            )
        lines += [
            f"{_chunked_label(row):<36} monolithic-raises={row.monolithic_raises}  "
            f"chunked({row.row_chunk}) {row.chunked_seconds:.3f}s  "
            f"matches-edkm={row.matches_edkm_forward}"
            for row in self.chunked
        ]
        return "\n".join(lines)

    def failures(self) -> list[str]:
        failures = []
        for row in self.sweeps:
            label = _sweep_label(row)
            if not row.bit_identical:
                failures.append(f"{label}: parallel outputs differ from serial")
            if not row.stats_identical:
                failures.append(f"{label}: per-layer step-cache counters differ")
            if self.speedup_gate_active and row.speedup < MIN_SPEEDUP:
                failures.append(
                    f"{label}: speedup {row.speedup:.2f}x below the "
                    f"{MIN_SPEEDUP}x floor ({self.cpu_count} cores)"
                )
        for row in self.chunked:
            label = _chunked_label(row)
            if not row.monolithic_raises:
                failures.append(
                    f"{label}: monolithic dense composition did not refuse a "
                    "layer over the saved-bytes limit"
                )
            if not row.matches_edkm_forward:
                failures.append(f"{label}: chunked output diverges from eDKM forward")
        return failures


def _sweep_label(row: ParallelSweepRow) -> str:
    return f"sweep layers={row.n_layers} x {row.weights_per_layer}w"


def _chunked_label(row: ChunkedDenseRow) -> str:
    return f"chunked dense N={row.n_weights} k={row.n_clusters}"


def _timed_sweep(compressor: ModelCompressor, repeats: int) -> tuple[float, dict]:
    best = float("inf")
    results: dict = {}
    for _ in range(repeats):
        _reset(compressor)
        t0 = time.perf_counter()
        results = compressor.precluster()
        best = min(best, time.perf_counter() - t0)
    return best, results


def _sweep_row(
    n_layers: int,
    in_features: int,
    out_features: int,
    workers: int,
    bits: int,
    iters: int,
    repeats: int,
    seed: int,
) -> ParallelSweepRow:
    serial = build_stack_compressor(
        n_layers, in_features, out_features, seed, bits, iters, num_workers=1
    )
    parallel = build_stack_compressor(
        n_layers, in_features, out_features, seed, bits, iters, num_workers=workers
    )

    serial_s, serial_res = _timed_sweep(serial, repeats)
    parallel_s, parallel_res = _timed_sweep(parallel, repeats)
    return ParallelSweepRow(
        n_layers=n_layers,
        weights_per_layer=in_features * out_features,
        workers=workers,
        serial_seconds=serial_s,
        parallel_seconds=parallel_s,
        bit_identical=_results_identical(serial_res, parallel_res),
        stats_identical=_layer_stats(serial) == _layer_stats(parallel),
    )


def _chunked_dense_row(
    n_weights: int, bits: int, row_chunk: int, seed: int
) -> ChunkedDenseRow:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_weights).astype(np.float32) * 0.05
    config = DKMConfig(bits=bits, iters=2)

    # No grad consumer here: the timed run measures the deployment-style
    # clustering sweep, so leave autograd recording off (gradient exactness
    # of the chunked path is covered by tests/test_parallel_compress.py).
    weights = Tensor.from_numpy(values, dtype=bfloat16)
    clusterer = DKMClusterer(config)
    monolithic_raises, monolithic_error = False, ""
    try:
        clusterer.cluster_dense(weights)
    except MemoryError as exc:
        monolithic_raises, monolithic_error = True, str(exc)

    t0 = time.perf_counter()
    chunked_out = clusterer.cluster_dense(weights, row_chunk=row_chunk)
    chunked_s = time.perf_counter() - t0

    # Same converged state through the eDKM unique-space forward: the dense
    # soft reconstruction must agree (both project back to the bf16 grid).
    edkm_weights = Tensor.from_numpy(values, dtype=bfloat16)
    edkm_clusterer = DKMClusterer(config)
    edkm_out = edkm_cluster(edkm_weights, edkm_clusterer)
    matches = bool(
        np.allclose(
            chunked_out.numpy().astype(np.float32),
            edkm_out.numpy().astype(np.float32),
            atol=1e-2,
            rtol=1e-2,
        )
    )
    return ChunkedDenseRow(
        n_weights=n_weights,
        n_clusters=config.n_clusters,
        row_chunk=row_chunk,
        monolithic_raises=monolithic_raises,
        monolithic_error=monolithic_error,
        chunked_seconds=chunked_s,
        matches_edkm_forward=matches,
    )


def run_parallel_layers(
    n_layers: int = 8,
    in_features: int = 512,
    out_features: int = 512,
    workers: int = 4,
    bits: int = 3,
    iters: int = 3,
    repeats: int = 3,
    dense_weights: int = 6 << 20,
    dense_bits: int = 4,
    dense_row_chunk: int = 1 << 16,
    seed: int = 0,
) -> ParallelBenchResult:
    """Run the fan-out and chunked-dense benchmarks with a fixed seed.

    ``dense_weights`` defaults to 6M elements so the monolithic dense
    composition (``|W| x 16`` float32 buffers, ~400 MB each) trips the
    default ``dense_saved_bytes_limit`` -- the layer size that previously
    could only run through the eDKM path.
    """
    result = ParallelBenchResult(cpu_count=os.cpu_count() or 1)
    result.sweeps.append(
        _sweep_row(
            n_layers, in_features, out_features, workers, bits, iters, repeats, seed
        )
    )
    result.chunked.append(
        _chunked_dense_row(dense_weights, dense_bits, dense_row_chunk, seed)
    )
    return result


def run(quick: bool = False, seed: int = 0) -> ParallelBenchResult:
    """``python -m repro.bench parallel``; quick = smaller layers, fewer repeats."""
    if quick:
        result = run_parallel_layers(
            in_features=256,
            out_features=512,
            repeats=2,
            # 4.7M weights: ~25% smaller than the 6M default while still
            # over the 4.19M threshold of the default dense limit at k=16.
            dense_weights=(1 << 22) + (1 << 19),
            seed=seed,
        )
    else:
        result = run_parallel_layers(seed=seed)
    result.speedup_gate_active = (
        not quick and result.cpu_count >= MIN_CORES_FOR_SPEEDUP_GATE
    )
    return result
