"""Process-engine benchmark: node scaling, delta shipping, identity gates.

Measures the process engine's (``backend="process"``) node-count scaling
curve and proves the equivalences placement must not change:

- **Scaling curve** -- the same heterogeneous model (one embedding-sized
  layer dominating several small projections) is compressed on 1, 2, and
  4 nodes (``num_workers``); per-sweep wall time, shipped bytes (total
  and per layer), full/delta task counts, and per-node byte loads are
  recorded for each point.  Wall times are recorded but not gated (CI
  runners are core-starved and noisy); the placement-balance, transport,
  and identity assertions always gate.
- **Bit-identity** -- every node count must reproduce the serial
  reference exactly (centroids, assignments, temperatures,
  reconstruction errors, and per-layer ``FastPathStats`` counters)
  across a cold sweep, a warm all-delta sweep and a sweep after a node
  worker is hard-killed (crash-recovery re-ships full state).

Every exported shared-memory block must be unlinked after the run.
``python -m repro.bench sharded`` writes ``BENCH_sharded.json`` (schema:
``docs/benchmarks.md``).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

import repro.nn as nn
from repro.bench.backends import _all_unlinked, _layer_stats, _results_identical
from repro.core.compressor import ModelCompressor
from repro.core.config import CompressorConfig, DKMConfig

N_SWEEPS = 3
"""Per-node-count sweep schedule: cold, warm, crash-recovery."""

NODE_COUNTS = (1, 2, 4)
"""The scaling-curve points."""


@dataclass
class ShardedSweepRow:
    """One sweep's transport + equivalence measurements at one node count."""

    nodes: int
    sweep: int
    scenario: str
    wall_seconds: float
    bytes_shipped: int
    bytes_per_layer: float
    full_tasks: int
    delta_tasks: int
    bit_identical: bool
    stats_identical: bool


@dataclass
class ShardedBenchResult:
    """Everything :func:`run_sharded` measured, JSON-serializable."""

    cpu_count: int = 0
    n_layers: int = 0
    layer_bytes: dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0
    serial_wall_seconds: list[float] = field(default_factory=list)
    rows: list[ShardedSweepRow] = field(default_factory=list)
    loads: dict[int, list[int]] = field(default_factory=dict)
    balanced: dict[int, bool] = field(default_factory=dict)
    shm_cleaned: bool = True

    def to_json_dict(self) -> dict:
        """The ``BENCH_sharded.json`` payload (see ``docs/benchmarks.md``)."""
        warm = {
            nodes: next(
                (r for r in self.rows if r.nodes == nodes and r.sweep == 2),
                None,
            )
            for nodes in sorted({r.nodes for r in self.rows})
        }
        return {
            "benchmark": "sharded",
            "cpu_count": self.cpu_count,
            "n_layers": self.n_layers,
            "layer_bytes": self.layer_bytes,
            "total_bytes": self.total_bytes,
            "serial_wall_seconds": self.serial_wall_seconds,
            "rows": [asdict(row) for row in self.rows],
            "scaling": {
                str(nodes): {
                    "warm_wall_seconds": row.wall_seconds if row else None,
                    "warm_bytes_shipped": row.bytes_shipped if row else None,
                    "warm_bytes_per_layer": row.bytes_per_layer if row else None,
                    "loads": self.loads.get(nodes),
                    "balanced": self.balanced.get(nodes),
                }
                for nodes, row in warm.items()
            },
            "shm_cleaned": self.shm_cleaned,
        }

    def render(self) -> str:
        lines = [
            f"nodes={row.nodes} sweep {row.sweep} "
            f"({row.scenario:<14}) {row.wall_seconds:.4f}s  "
            f"{row.bytes_shipped:>7}B shipped "
            f"({row.bytes_per_layer:.0f}B/layer) "
            f"({row.full_tasks} full / {row.delta_tasks} delta)  "
            f"bit-identical={row.bit_identical}  "
            f"stats-identical={row.stats_identical}"
            for row in self.rows
        ]
        for nodes, point in self.to_json_dict()["scaling"].items():
            lines.append(
                f"scaling nodes={nodes}: warm {point['warm_wall_seconds']:.4f}s  "
                f"{point['warm_bytes_shipped']}B "
                f"({point['warm_bytes_per_layer']:.0f}B/layer)  "
                f"loads={point['loads']}  balanced={point['balanced']}"
            )
        lines.append(f"shm-cleaned={self.shm_cleaned}  cpu_count={self.cpu_count}")
        return "\n".join(lines)

    def failures(self) -> list[str]:
        """Identity, transport, placement and shm-cleanup gates."""
        failures = []
        for row in self.rows:
            label = f"nodes={row.nodes} sweep {row.sweep}"
            if not row.bit_identical:
                failures.append(
                    f"{label} ({row.scenario}): outputs differ from serial"
                )
            if not row.stats_identical:
                failures.append(
                    f"{label} ({row.scenario}): step-cache counters differ from serial"
                )
            if row.scenario == "warm" and row.full_tasks != 0:
                failures.append(
                    f"{label}: warm sweep still shipped {row.full_tasks} full task(s)"
                )
        failures += [
            f"nodes={nodes}: placement violates balance bound"
            for nodes, balanced in self.balanced.items()
            if not balanced
        ]
        if not self.shm_cleaned:
            failures.append("process backend left shared-memory blocks linked")
        return failures


class _SkewedStack(nn.Module):
    """One embedding-sized layer plus ``n_small`` small projections."""

    def __init__(self, features: int, n_small: int, seed: int) -> None:
        super().__init__()
        self.embed = nn.Linear(
            features, 8 * features, bias=False, rng=np.random.default_rng(seed)
        )
        for i in range(n_small):
            setattr(
                self,
                f"proj{i}",
                nn.Linear(
                    features,
                    features,
                    bias=False,
                    rng=np.random.default_rng(seed + 1 + i),
                ),
            )


def _build(
    backend: str,
    features: int,
    n_small: int,
    seed: int,
    bits: int,
    iters: int,
    **config_kwargs,
) -> ModelCompressor:
    stack = _SkewedStack(features, n_small, seed)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=bits, iters=iters),
        config=CompressorConfig(backend=backend, **config_kwargs),
    )
    compressor.compress(stack)
    return compressor


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


def _weight_bytes(compressor: ModelCompressor) -> dict[str, int]:
    return {
        name: wrapper.inner.weight.numel * wrapper.inner.weight.dtype.itemsize
        for name, wrapper in compressor.wrapped.items()
    }


def run_sharded(
    features: int = 96,
    n_small: int = 5,
    bits: int = 3,
    iters: int = 3,
    seed: int = 0,
) -> ShardedBenchResult:
    """Run the node-scaling benchmark, fixed seed."""
    result = ShardedBenchResult(cpu_count=os.cpu_count() or 1)

    serial = _build("serial", features, n_small, seed, bits, iters)
    result.layer_bytes = _weight_bytes(serial)
    result.total_bytes = sum(result.layer_bytes.values())
    result.n_layers = len(result.layer_bytes)
    serial_results, serial_stats = [], []
    for _ in range(N_SWEEPS):
        start = time.perf_counter()
        serial_results.append(serial.precluster(compute_error=True))
        result.serial_wall_seconds.append(time.perf_counter() - start)
        serial_stats.append(_layer_stats(serial))
    serial.close()

    for nodes in NODE_COUNTS:
        compressor = _build(
            "process", features, n_small, seed, bits, iters, num_workers=nodes
        )
        try:
            for sweep in range(N_SWEEPS):
                scenario = "cold" if sweep == 0 else "warm"
                if sweep == 2:
                    _kill_one_slot_worker(compressor)
                    scenario = "crash-recovery"
                start = time.perf_counter()
                res = compressor.precluster(compute_error=True)
                wall = time.perf_counter() - start
                transport = compressor.transport_stats()
                result.rows.append(
                    ShardedSweepRow(
                        nodes=nodes,
                        sweep=sweep + 1,
                        scenario=scenario,
                        wall_seconds=wall,
                        bytes_shipped=transport.last_sweep_bytes,
                        bytes_per_layer=transport.last_sweep_bytes
                        / result.n_layers,
                        full_tasks=transport.last_sweep_full_tasks,
                        delta_tasks=transport.last_sweep_delta_tasks,
                        bit_identical=_results_identical(
                            serial_results[sweep], res
                        ),
                        stats_identical=serial_stats[sweep]
                        == _layer_stats(compressor),
                    )
                )
            loads = [0] * nodes
            for name, slot in compressor._engine.placement().items():
                loads[slot] += result.layer_bytes[name]
            result.loads[nodes] = loads
            # The greedy bound: max load <= mean load + largest layer.
            result.balanced[nodes] = max(loads) <= (
                result.total_bytes / nodes + max(result.layer_bytes.values())
            )
        finally:
            engine = compressor._engine
            shm_names = engine.active_shm_names() if engine is not None else []
            compressor.close()
            if shm_names and not _all_unlinked(shm_names):
                result.shm_cleaned = False

    return result


def run(quick: bool = False, seed: int = 0) -> ShardedBenchResult:
    """``python -m repro.bench sharded``; quick = smaller layers."""
    return run_sharded(features=32 if quick else 96, seed=seed)
