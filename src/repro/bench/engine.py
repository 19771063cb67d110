"""Engine benchmark: the serial loop and the process engine over one grid.

One :class:`~repro.core.compressor.ModelCompressor` per grid cell sweeps
a stack of bias-free Linears (``precluster`` with reconstruction errors)
at one ``CompressorConfig.num_workers``: width 1 is the serial loop (each
stack's reference), 2 and 4 run the process engine.  The grid is
declared once: the product of :data:`OPTIONS` (stack x width) minus the
cells :func:`excluded` names.  The stacks:

- ``compute`` -- 8 layers of 512x512: kernel time dominates;
- ``dispatch`` -- 8 layers of 16x16: compute is negligible, so the wall
  time *is* the process engine's dispatch cost (task pickling + IPC + shm
  attach);
- ``wide16`` / ``wide32`` -- 16 / 32 layers of 64x64: many small layers,
  where the process engine at 2 workers has come closest to serial on a
  2-core host (measured numbers: ``docs/sharding.md``);
- ``skewed`` -- one 8fxf layer plus five fxf: the process engine's
  byte-balanced placement, at every width.

Every cell runs one schedule: a ``cold`` sweep (no clustering state; the
process pool spawns); ``repeats`` ``warm`` sweeps (state carried, step
caches hit, process layers ship as ``O(k)`` deltas); ``repeats`` ``refit``
sweeps, each after an optimizer-style write of every weight (caches miss
on a warm pool, process layers re-ship full: the e2e ``compress_sweep``
regime).  The ``skewed`` cells run one more: ``crash-recovery`` at 2 and
4 workers (one slot worker is hard-killed first, so the engine respawns
it and re-ships its layers full), ``warm`` on the serial reference.  Each
row records the width the engine actually ran
(``config.resolve_workers``).

Gates (``failures()``): every sweep's outputs (centroids, assignments,
temperatures, reconstruction errors) and per-layer ``FastPathStats``
equal the serial cell's at the same sweep; warm process sweeps ship no
full task; each process cell's per-slot byte loads obey the greedy bound
``max load <= mean load + largest layer``; every shared-memory block a
process cell exported is unlinked after ``close()``.  Wall times are
recorded, not gated: the process engine cannot beat serial without spare
cores, and CI runners are noisy.  ``python -m repro.bench engine`` writes
``BENCH_engine.json`` (schema: ``docs/benchmarks.md``).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time
from dataclasses import asdict, dataclass, field
from multiprocessing import shared_memory

import numpy as np

import repro.nn as nn
from repro.core.compressor import ModelCompressor
from repro.core.config import CompressorConfig, DKMConfig
from repro.core.procpool import TransportStats

SUMMARY = ("cold", "warm", "refit")
"""The scenarios each cell's summary reports (best wall time of each)."""

POOL_WIDTH = 2
"""The one process width of the quick grid."""

OPTIONS = {
    "stack": ("compute", "dispatch", "wide16", "wide32", "skewed"),
    "workers": (1, 2, 4),
}


def excluded(stack: str, workers: int, quick: bool) -> bool:
    """The cells of the option product the grid skips.

    The full grid runs every cell.  The quick grid only arms the gates, so
    it drops the two timing-only ``wide`` stacks and keeps the serial
    reference plus one process width, except on ``skewed``, the placement
    stack, which keeps every width: each process cell spawns its workers,
    ~0.4 s of imports each.
    """
    if not quick:
        return False
    if stack.startswith("wide"):
        return True
    return stack != "skewed" and workers not in (1, POOL_WIDTH)


def grid(quick: bool) -> list[tuple[str, int]]:
    """``(stack, workers)`` cells, each stack's serial cell (width 1) first."""
    return [
        cell
        for cell in itertools.product(*OPTIONS.values())
        if not excluded(*cell, quick)
    ]


def stack_shapes(quick: bool) -> dict[str, list[tuple[int, int]]]:
    """``(in_features, out_features)`` per layer; quick shrinks two stacks."""
    side, f = (128, 32) if quick else (512, 96)
    return {
        "compute": [(side, side)] * 8,
        "dispatch": [(16, 16)] * 8,
        "wide16": [(64, 64)] * 16,
        "wide32": [(64, 64)] * 32,
        "skewed": [(f, 8 * f)] + [(f, f)] * 5,
    }


class _LinearStack(nn.Module):
    """One bias-free Linear ``layer{i}`` per shape, seeded ``seed + i``."""

    def __init__(self, shapes: list[tuple[int, int]], seed: int) -> None:
        super().__init__()
        for i, (in_features, out_features) in enumerate(shapes):
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


def build_stack_compressor(
    shapes: list[tuple[int, int]],
    seed: int,
    bits: int = 3,
    iters: int = 3,
    **config_kwargs,
) -> ModelCompressor:
    """A compressed :class:`_LinearStack` under ``CompressorConfig(**config_kwargs)``."""
    stack = _LinearStack(shapes, seed)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=bits, iters=iters),
        config=CompressorConfig(**config_kwargs),
    )
    compressor.compress(stack)
    return compressor


def _layer_stats(compressor: ModelCompressor) -> dict[str, dict]:
    return {
        name: asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


def _digest(results: dict) -> str:
    """blake2b over each layer's name, centroids, assignments, temperature and
    reconstruction error: equal digests mean bit-identical sweep results.

    References keep the digest, not the arrays: holding every sweep's
    assignments slowed the next sweeps' allocations by ~5 ms at 8 x 512^2.
    """
    digest = hashlib.blake2b(digest_size=16)
    for name, result in results.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.centroids).tobytes())
        digest.update(np.ascontiguousarray(result.assignments).tobytes())
        digest.update(repr((result.temperature, result.reconstruction_error)).encode())
    return digest.hexdigest()


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


def _timed_sweep(compressor: ModelCompressor) -> tuple[float, str]:
    """One ``precluster`` sweep: its wall time and its results' digest."""
    start = time.perf_counter()
    results = compressor.precluster(compute_error=True)
    return time.perf_counter() - start, _digest(results)


def _write_weights(compressor: ModelCompressor, rng: np.random.Generator) -> None:
    """An optimizer write: every weight becomes ``w + N(0, 1e-3)`` (new version)."""
    for wrapper in compressor.wrapped.values():
        weight = wrapper.inner.weight
        noise = rng.standard_normal(weight.shape, dtype=np.float32)
        weight.copy_(weight._compute() + np.float32(1e-3) * noise)


def _kill_one_slot_worker(compressor: ModelCompressor) -> None:
    """Simulate a node crash: hard-kill the first live slot process."""
    engine = compressor._engine
    assert engine is not None
    for pool in engine._state["slots"]:
        processes = list((pool._processes or {}).values())
        if processes:
            processes[0].kill()
            processes[0].join()
            return
    raise AssertionError("no live slot worker to kill")


@dataclass
class SweepRow:
    """One sweep of one grid cell, against the serial cell's same sweep."""

    stack: str
    workers: int
    sweep: int
    scenario: str
    wall_seconds: float
    bit_identical: bool
    stats_identical: bool
    bytes_shipped: int = 0
    full_tasks: int = 0
    delta_tasks: int = 0

    @property
    def cell(self) -> str:
        return f"{self.stack} x{self.workers}"


@dataclass
class EngineBenchResult:
    """Everything :func:`run_engine` measured, JSON-serializable."""

    cpu_count: int = 0
    repeats: int = 0
    layer_bytes: dict[str, list[int]] = field(default_factory=dict)
    rows: list[SweepRow] = field(default_factory=list)
    loads: dict[str, list[int]] = field(default_factory=dict)
    balanced: dict[str, bool] = field(default_factory=dict)
    shm_cleaned: bool = True

    def cells(self) -> list[dict]:
        """Per cell: cold, best warm and best refit wall time, and each over serial's."""
        walls: dict[tuple, dict[str, float]] = {}
        for row in self.rows:
            if row.scenario != "crash-recovery":
                wall = walls.setdefault((row.stack, row.workers), {})
                wall[row.scenario] = min(
                    wall.get(row.scenario, float("inf")), row.wall_seconds
                )
        return [
            {
                "stack": stack,
                "workers": workers,
                **{f"{key}_wall_seconds": wall[key] for key in SUMMARY},
                **{
                    f"{key}_speedup": walls[(stack, 1)][key] / wall[key]
                    for key in SUMMARY
                },
            }
            for (stack, workers), wall in walls.items()
        ]

    def to_json_dict(self) -> dict:
        """The ``BENCH_engine.json`` payload (see ``docs/benchmarks.md``)."""
        return {
            "benchmark": "engine",
            "cpu_count": self.cpu_count,
            "repeats": self.repeats,
            "layer_bytes": self.layer_bytes,
            "cells": self.cells(),
            "rows": [asdict(row) for row in self.rows],
            "loads": self.loads,
            "balanced": self.balanced,
            "shm_cleaned": self.shm_cleaned,
        }

    def render(self) -> str:
        lines = [
            f"{cell['stack']:<9} x{cell['workers']}"
            + "".join(
                f"  {key} {cell[f'{key}_wall_seconds']:.4f}s "
                f"({cell[f'{key}_speedup']:.2f}x)"
                for key in SUMMARY
            )
            for cell in self.cells()
        ]
        lines += [
            f"{cell:<20} loads={self.loads[cell]}  balanced={ok}"
            for cell, ok in self.balanced.items()
        ]
        identical = all(r.bit_identical and r.stats_identical for r in self.rows)
        lines.append(
            f"{len(self.rows)} sweeps  identical-to-serial={identical}  "
            f"shm-cleaned={self.shm_cleaned}  cpu_count={self.cpu_count}"
        )
        return "\n".join(lines)

    def failures(self) -> list[str]:
        """Identity, delta-shipping, placement and shm-cleanup gates."""
        failures = []
        for row in self.rows:
            label = f"{row.cell} sweep {row.sweep} ({row.scenario})"
            if not row.bit_identical:
                failures.append(f"{label}: outputs differ from serial")
            if not row.stats_identical:
                failures.append(f"{label}: step-cache counters differ from serial")
            if row.workers > 1 and row.scenario == "warm" and row.full_tasks:
                failures.append(f"{label}: shipped {row.full_tasks} full task(s)")
        failures += [
            f"{cell}: placement violates balance bound"
            for cell, ok in self.balanced.items()
            if not ok
        ]
        if not self.shm_cleaned:
            failures.append("process engine left shared-memory blocks linked")
        return failures


def run_engine(quick: bool = False, seed: int = 0, repeats: int = 3) -> EngineBenchResult:
    """Sweep every cell of :func:`grid` through the schedule, fixed seed.

    Each stack's serial cell runs first; its sweeps are the reference the
    stack's other cells are compared against, sweep by sweep.
    """
    shapes = stack_shapes(quick)
    result = EngineBenchResult(cpu_count=os.cpu_count() or 1, repeats=repeats)
    references: dict[str, list[tuple[str, dict]]] = {}
    for stack, workers in grid(quick):
        compressor = build_stack_compressor(shapes[stack], seed, num_workers=workers)
        workers = compressor.config.resolve_workers(len(compressor.wrapped))
        schedule = ["cold"] + ["warm"] * repeats + ["refit"] * repeats
        if stack == "skewed":
            schedule.append("crash-recovery" if workers > 1 else "warm")
        sizes = {
            name: wrapper.inner.weight.numel * wrapper.inner.weight.dtype.itemsize
            for name, wrapper in compressor.wrapped.items()
        }
        result.layer_bytes[stack] = list(sizes.values())
        reference = references.setdefault(stack, [])
        rng = np.random.default_rng(seed)
        shm_names: set[str] = set()  # every block exported, refits included
        try:
            for sweep, scenario in enumerate(schedule, start=1):
                if scenario == "refit":
                    _write_weights(compressor, rng)
                elif scenario == "crash-recovery":
                    _kill_one_slot_worker(compressor)
                wall, digest = _timed_sweep(compressor)
                if compressor._engine is not None:
                    shm_names.update(compressor._engine.active_shm_names())
                stats = _layer_stats(compressor)
                if workers == 1:
                    reference.append((digest, stats))
                shipped = compressor.transport_stats() or TransportStats()
                result.rows.append(
                    SweepRow(
                        stack, workers, sweep, scenario, wall,
                        reference[sweep - 1][0] == digest,
                        reference[sweep - 1][1] == stats,
                        shipped.last_sweep_bytes,
                        shipped.last_sweep_full_tasks,
                        shipped.last_sweep_delta_tasks,
                    )
                )
            if workers > 1:
                cell = result.rows[-1].cell
                loads = [0] * workers
                for name, slot in compressor._engine.placement().items():
                    loads[slot] += sizes[name]
                result.loads[cell] = loads
                # The greedy bound: max load <= mean load + largest layer.
                result.balanced[cell] = max(loads) <= (
                    sum(sizes.values()) / workers + max(sizes.values())
                )
        finally:
            compressor.close()
            if not _all_unlinked(sorted(shm_names)):
                result.shm_cleaned = False
    return result


def run(quick: bool = False, seed: int = 0) -> EngineBenchResult:
    """``python -m repro.bench engine``; quick = fewer cells, smaller layers, one repeat."""
    return run_engine(quick=quick, seed=seed, repeats=1 if quick else 3)
