"""Compression-backend benchmark: serial vs thread vs process fan-out.

Measures the two quantities the process backend exists to change:

- **sweep wall time** -- a multi-layer ``precluster`` sweep (per-layer
  refine + hard assign) through each ``CompressorConfig.backend``, on
  layers big enough that kernel time dominates.  Thread and process rows
  are asserted *bit-identical* to serial (centroids, assignments,
  temperatures, reconstruction errors, per-layer step-cache counters).
- **dispatch overhead** -- the same sweep on deliberately tiny layers
  (compute is negligible), so the sweep's wall time *is* the backend's
  per-sweep dispatch cost: thread-pool handoff for ``"thread"``, task
  pickling + IPC + shm attach for ``"process"``.  This is the number that
  decides when the process backend's overlap of Python-side op dispatch
  pays for its transport.

After every process-backend run the engine's shared-memory blocks are
closed and each recorded block name is probed: ``shm_cleaned`` is true
iff every probe raises ``FileNotFoundError``.

There is deliberately no wall-clock gate: pool backends cannot beat
serial without spare cores and CI runners are noisy, so the wall times
and per-layer dispatch costs are there to read while the bit-identity,
counter and shm-cleanup gates always fail the run.
``python -m repro.bench backends`` writes ``BENCH_backends.json``
(schema: ``docs/benchmarks.md``).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import asdict, dataclass, field
from multiprocessing import shared_memory

import numpy as np

import repro.nn as nn
from repro.core.compressor import ModelCompressor
from repro.core.config import BACKENDS, CompressorConfig, DKMConfig
from repro.core.fastpath import FastPathStats


class _LinearStack(nn.Module):
    """``n_layers`` independent Linears -- the multi-layer fan-out target."""

    def __init__(self, n_layers: int, in_features: int, out_features: int, seed: int):
        super().__init__()
        for i in range(n_layers):
            setattr(
                self,
                f"layer{i}",
                nn.Linear(
                    in_features,
                    out_features,
                    bias=False,
                    rng=np.random.default_rng(seed + i),
                ),
            )


@dataclass
class BackendRow:
    """One backend's timing + equivalence result for one sweep shape."""

    backend: str
    n_layers: int
    weights_per_layer: int
    workers: int
    wall_seconds: float
    bit_identical: bool
    stats_identical: bool
    shm_blocks: int = 0

    def speedup_over(self, serial_seconds: float) -> float:
        """Serial wall time over this backend's (higher is better)."""
        return serial_seconds / max(self.wall_seconds, 1e-12)


@dataclass
class BackendBenchResult:
    """Everything :func:`run_backends` measured, JSON-serializable."""

    cpu_count: int = 0
    workers: int = 0
    sweeps: list[BackendRow] = field(default_factory=list)
    dispatch: list[BackendRow] = field(default_factory=list)
    shm_cleaned: bool = True

    def to_json_dict(self) -> dict:
        """The ``BENCH_backends.json`` payload (see ``docs/benchmarks.md``)."""

        def rows(items: list[BackendRow]) -> list[dict]:
            serial = {
                (r.n_layers, r.weights_per_layer): r.wall_seconds
                for r in items
                if r.backend == "serial"
            }
            out = []
            for row in items:
                d = asdict(row)
                base = serial.get((row.n_layers, row.weights_per_layer))
                d["speedup"] = row.speedup_over(base) if base is not None else None
                d["dispatch_per_layer_seconds"] = row.wall_seconds / max(
                    row.n_layers, 1
                )
                out.append(d)
            return out

        return {
            "benchmark": "backends",
            "cpu_count": self.cpu_count,
            "workers": self.workers,
            "sweeps": rows(self.sweeps),
            "dispatch": rows(self.dispatch),
            "shm_cleaned": self.shm_cleaned,
        }

    def render(self) -> str:
        payload = self.to_json_dict()
        lines = []
        for label, rows in (("sweep", payload["sweeps"]), ("dispatch", payload["dispatch"])):
            for row in rows:
                speedup = row["speedup"]
                lines.append(
                    f"{label:<9} {row['backend']:<8} "
                    f"{row['n_layers']}x{row['weights_per_layer']}w  "
                    f"{row['wall_seconds']:.4f}s"
                    + (f"  speedup {speedup:.2f}x" if speedup is not None else "")
                    + f"  bit-identical={row['bit_identical']}"
                    f"  stats-identical={row['stats_identical']}"
                )
        lines.append(f"shm-cleaned={self.shm_cleaned}  cpu_count={self.cpu_count}")
        return "\n".join(lines)

    def failures(self) -> list[str]:
        failures = []
        for label, rows in (("sweep", self.sweeps), ("dispatch", self.dispatch)):
            for row in rows:
                if not row.bit_identical:
                    failures.append(f"{label} {row.backend}: outputs differ from serial")
                if not row.stats_identical:
                    failures.append(f"{label} {row.backend}: step-cache counters differ")
        if not self.shm_cleaned:
            failures.append("process backend left shared-memory blocks linked")
        return failures


def build_stack_compressor(
    n_layers: int,
    in_features: int,
    out_features: int,
    seed: int,
    bits: int = 3,
    iters: int = 3,
    **config_kwargs,
) -> ModelCompressor:
    """A compressed :class:`_LinearStack` under ``CompressorConfig(**config_kwargs)``."""
    stack = _LinearStack(n_layers, in_features, out_features, seed)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=bits, iters=iters),
        config=CompressorConfig(**config_kwargs),
    )
    compressor.compress(stack)
    return compressor


def _reset(compressor: ModelCompressor) -> None:
    """Fresh clustering state + empty step caches for a timed sweep."""
    for wrapper in compressor.wrapped.values():
        wrapper.clusterer.state = None
        wrapper.step_cache.invalidate()
        wrapper.step_cache.stats = FastPathStats()


def _timed_sweeps(
    compressor: ModelCompressor, repeats: int, compute_error: bool
) -> tuple[float, dict]:
    """Min-of-``repeats`` wall time; a warm-up sweep absorbs one-time costs.

    The warm-up (untimed) sweep spins the process backend's pool up and
    populates its shm export cache, so timed rows report the steady-state
    sweep cost rather than worker spawn time.  State is reset before every
    sweep, so each timed run does the full from-scratch clustering.
    """
    _reset(compressor)
    compressor.precluster(compute_error=compute_error)
    best = float("inf")
    results: dict = {}
    for _ in range(repeats):
        _reset(compressor)
        start = time.perf_counter()
        results = compressor.precluster(compute_error=compute_error)
        best = min(best, time.perf_counter() - start)
    return best, results


def _layer_stats(compressor: ModelCompressor) -> dict[str, dict]:
    return {
        name: dataclasses.asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


def _results_identical(reference: dict, candidate: dict) -> bool:
    if list(reference) != list(candidate):
        return False
    return all(
        np.array_equal(reference[name].centroids, candidate[name].centroids)
        and np.array_equal(reference[name].assignments, candidate[name].assignments)
        and reference[name].temperature == candidate[name].temperature
        and reference[name].reconstruction_error
        == candidate[name].reconstruction_error
        for name in reference
    )


def _all_unlinked(names: list[str]) -> bool:
    for name in names:
        try:
            block = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:
            return False
        finally:
            block.close()
    return True


def _sweep_all_backends(
    result: BackendBenchResult,
    rows: list[BackendRow],
    n_layers: int,
    in_features: int,
    out_features: int,
    workers: int,
    bits: int,
    iters: int,
    repeats: int,
    seed: int,
    compute_error: bool,
) -> None:
    reference_results: dict | None = None
    reference_stats: dict | None = None
    for backend in BACKENDS:
        compressor = build_stack_compressor(
            n_layers, in_features, out_features, seed, bits, iters,
            backend=backend, num_workers=workers,
        )
        wall, results = _timed_sweeps(compressor, repeats, compute_error)
        stats = _layer_stats(compressor)
        shm_names: list[str] = []
        if compressor._engine is not None:
            shm_names = compressor._engine.active_shm_names()
        compressor.close()
        if shm_names and not _all_unlinked(shm_names):
            result.shm_cleaned = False
        if backend == "serial":
            reference_results, reference_stats = results, stats
            bit_identical = stats_identical = True
        else:
            assert reference_results is not None
            bit_identical = _results_identical(reference_results, results)
            stats_identical = reference_stats == stats
        rows.append(
            BackendRow(
                backend=backend,
                n_layers=n_layers,
                weights_per_layer=in_features * out_features,
                workers=workers,
                wall_seconds=wall,
                bit_identical=bit_identical,
                stats_identical=stats_identical,
                shm_blocks=len(shm_names),
            )
        )


def run_backends(
    n_layers: int = 8,
    in_features: int = 512,
    out_features: int = 512,
    workers: int = 4,
    bits: int = 3,
    iters: int = 3,
    repeats: int = 3,
    dispatch_features: int = 16,
    seed: int = 0,
) -> BackendBenchResult:
    """Run the backend sweep + dispatch-overhead benchmarks, fixed seed.

    The main sweep uses ``n_layers`` layers of ``in_features x
    out_features`` weights (compute-dominated); the dispatch sweep reuses
    ``n_layers`` but shrinks every layer to ``dispatch_features^2``
    weights, making the measured wall time almost pure backend dispatch.
    """
    result = BackendBenchResult(cpu_count=os.cpu_count() or 1, workers=workers)
    _sweep_all_backends(
        result,
        result.sweeps,
        n_layers,
        in_features,
        out_features,
        workers,
        bits,
        iters,
        repeats,
        seed,
        compute_error=True,
    )
    _sweep_all_backends(
        result,
        result.dispatch,
        n_layers,
        dispatch_features,
        dispatch_features,
        workers,
        bits,
        iters,
        repeats,
        seed,
        compute_error=False,
    )
    return result


def run(quick: bool = False, seed: int = 0) -> BackendBenchResult:
    """``python -m repro.bench backends``; quick = smaller layers, one repeat."""
    if quick:
        return run_backends(
            in_features=128, out_features=128, workers=2, repeats=1, seed=seed
        )
    return run_backends(seed=seed)
