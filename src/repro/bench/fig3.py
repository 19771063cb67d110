"""Experiment: paper Fig. 3 -- uniquification and sharding of the map.

Quantifies the decomposition on a realistic weight tensor: dense attention
map bytes vs attention table + index list bytes, the lossless
reconstruction, and the per-learner index-list bytes after sharding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.tables import PaperTable, render_table
from repro.core.uniquify import (
    attention_table,
    dense_attention_map,
    index_dtype_for,
    reconstruct_attention_map,
    uniquify,
)
from repro.tensor.dtype import DType, bfloat16


@dataclass
class Fig3Result:
    n_weights: int
    n_unique: int
    n_clusters: int
    dense_map_bytes: int
    table_bytes: int
    index_bytes: int
    index_bytes_per_learner: int
    n_learners: int
    reconstruction_exact: bool

    @property
    def uniquify_reduction(self) -> float:
        return self.dense_map_bytes / max(self.table_bytes + self.index_bytes, 1)

    @property
    def total_reduction_per_learner(self) -> float:
        per_learner = self.table_bytes + self.index_bytes_per_learner
        return self.dense_map_bytes / max(per_learner, 1)


def run_fig3(
    n_weights: int = 1 << 16,
    bits: int = 3,
    n_learners: int = 8,
    weight_dtype: DType = bfloat16,
    seed: int = 0,
) -> Fig3Result:
    rng = np.random.default_rng(seed)
    weights = (rng.standard_normal(n_weights) * 0.05).astype(np.float32)
    weights = weight_dtype.project(weights)
    k = 2**bits
    centroids = np.quantile(weights, (np.arange(k) + 0.5) / k).astype(np.float32)
    temperature = float(np.var(weights) / 4 + 1e-8)

    unique = uniquify(weights, weight_dtype)
    table = attention_table(unique.values, centroids, temperature)
    dense = dense_attention_map(weights, centroids, temperature)
    rebuilt = reconstruct_attention_map(table, unique.index_list)

    map_dtype_bytes = 4  # float32 in this engine
    idx_itemsize = index_dtype_for(unique.n_unique).itemsize
    index_bytes = unique.n_weights * idx_itemsize
    return Fig3Result(
        n_weights=unique.n_weights,
        n_unique=unique.n_unique,
        n_clusters=k,
        dense_map_bytes=unique.n_weights * k * map_dtype_bytes,
        table_bytes=unique.n_unique * k * map_dtype_bytes,
        index_bytes=index_bytes,
        index_bytes_per_learner=-(-index_bytes // n_learners),
        n_learners=n_learners,
        reconstruction_exact=bool(np.array_equal(rebuilt, dense)),
    )


def run_dtype_sweep(
    n_weights: int = 1 << 16, seed: int = 0
) -> dict[str, Fig3Result]:
    """Ablation: uniquification keyed on bf16 vs fp16 bit patterns."""
    from repro.tensor.dtype import float16

    return {
        "bfloat16": run_fig3(n_weights, weight_dtype=bfloat16, seed=seed),
        "float16": run_fig3(n_weights, weight_dtype=float16, seed=seed),
    }


@dataclass
class Fig3BenchResult(PaperTable):
    """Fig. 3 plus the pattern-dtype ablation."""

    main: Fig3Result
    dtype_sweep: dict[str, Fig3Result]

    def render(self) -> str:
        r = self.main
        return "\n\n".join(
            [
                render_table(
                    ["quantity", "value"],
                    [
                        ["|W| weights", r.n_weights],
                        ["unique 16-bit patterns u", r.n_unique],
                        ["|C| centroids", r.n_clusters],
                        ["dense attention map (bytes)", r.dense_map_bytes],
                        ["attention table (bytes)", r.table_bytes],
                        ["index list (bytes)", r.index_bytes],
                        [f"index list / learner, |L|={r.n_learners} (bytes)",
                         r.index_bytes_per_learner],
                        ["U reduction (map -> table+index)",
                         f"{r.uniquify_reduction:.1f}x"],
                        ["U+S per-learner reduction",
                         f"{r.total_reduction_per_learner:.1f}x"],
                        ["reconstruction bit-exact", r.reconstruction_exact],
                    ],
                    title="Fig. 3: attention-map decomposition "
                    "(bf16 weights, 3-bit clustering)",
                ),
                render_table(
                    ["pattern dtype", "unique patterns", "table bytes", "U reduction"],
                    [
                        [name, s.n_unique, s.table_bytes,
                         f"{s.uniquify_reduction:.1f}x"]
                        for name, s in self.dtype_sweep.items()
                    ],
                    title="Fig. 3 ablation: uniquification key dtype "
                    "(both bounded by 2^16)",
                ),
            ]
        )

    def failures(self) -> list[str]:
        r, sweep = self.main, self.dtype_sweep
        checks = [
            (r.uniquify_reduction > 5,
             f"fig3: U reduction {r.uniquify_reduction:.1f}x is not above 5x"),
            (r.total_reduction_per_learner > r.uniquify_reduction,
             "fig3: sharding did not compound the U reduction"),
            # bf16 has fewer mantissa bits than fp16 -> fewer distinct patterns.
            (sweep["bfloat16"].n_unique <= sweep["float16"].n_unique,
             "fig3: bf16 has more unique patterns than fp16"),
        ]
        for name, s in [("main", r), *sweep.items()]:
            checks.append((s.reconstruction_exact,
                           f"fig3 {name}: reconstruction is not bit-exact"))
            checks.append((s.n_unique <= 1 << 16,
                           f"fig3 {name}: more than 2^16 unique patterns"))
        return [message for ok, message in checks if not ok]


def run(quick: bool = False, seed: int = 0) -> Fig3BenchResult:
    """``python -m repro.bench fig3`` (cheap enough that quick == full)."""
    n_weights = 1 << 18
    return Fig3BenchResult(
        main=run_fig3(n_weights=n_weights, bits=3, n_learners=8, seed=seed),
        dtype_sweep=run_dtype_sweep(n_weights=n_weights, seed=seed),
    )
