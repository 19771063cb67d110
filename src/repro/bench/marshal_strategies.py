"""Marshal search-strategy ablation: graph walk vs the storage-id oracle.

The paper's Section 2.1 walks the forward graph for at most ``hop_budget``
hops to find a host copy of the same storage.  This benchmark measures
what that bounded walk leaves on the table: a transformer
forward+backward runs under the saved-tensor pipeline once per
``search_strategy`` (``graph``, ``storage-id``), on identical weights and
inputs, and we record per strategy:

- **hit rate** -- ``copies_avoided / tensors_packed``;
- **probe cost** -- frontier nodes dequeued per graph walk, zero for the
  identity oracle;
- **wall time** -- min-of-``repeats`` seconds for the full step.

The oracle dedups every repeated storage, so its hit rate is the ceiling
the walk is judged against (ROADMAP 5(a) starts from that gap).  The
per-strategy counters must reconcile:
``copies_made + copies_avoided == tensors_packed == hits + misses``.
``python -m repro.bench marshal`` writes ``BENCH_marshal.json``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

import repro.nn as nn
from repro.core.config import SEARCH_STRATEGIES, EDKMConfig
from repro.core.offload import SavedTensorPipeline
from repro.tensor.device import GPU
from repro.tensor.tensor import Tensor


@dataclass
class StrategyRow:
    """One strategy's stats over the common transformer workload."""

    strategy: str
    wall_seconds: float
    tensors_packed: int
    copies_made: int
    copies_avoided: int
    bytes_copied: int
    bytes_avoided: int
    graph_nodes_visited: int
    counters_reconcile: bool

    @property
    def hit_rate(self) -> float:
        return self.copies_avoided / max(self.tensors_packed, 1)

    @property
    def probe_cost(self) -> float:
        """Graph nodes walked per probe (the identity oracle walks none)."""
        return self.graph_nodes_visited / max(self.tensors_packed, 1)


@dataclass
class MarshalBenchResult:
    rows: list[StrategyRow] = field(default_factory=list)
    all_reconcile: bool = False
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        rows = []
        for row in self.rows:
            d = asdict(row)
            d["hit_rate"] = row.hit_rate
            d["probe_cost"] = row.probe_cost
            rows.append(d)
        return {
            "benchmark": "marshal_strategies",
            "strategies": rows,
            "all_reconcile": self.all_reconcile,
            "config": self.config,
        }

    def render(self) -> str:
        return "\n".join(
            f"{row.strategy:<20} packed {row.tensors_packed:>4}  "
            f"hit-rate {row.hit_rate:.3f}  probe-cost {row.probe_cost:8.1f}  "
            f"wall {row.wall_seconds:.4f}s  reconcile={row.counters_reconcile}"
            for row in self.rows
        )

    def failures(self) -> list[str]:
        failures = [
            f"{row.strategy}: copies_made + copies_avoided != tensors_packed "
            "or per-strategy hit/miss counters do not reconcile"
            for row in self.rows
            if not row.counters_reconcile
        ]
        rows = {row.strategy: row for row in self.rows}
        if rows["graph"].copies_avoided > rows["storage-id"].copies_avoided:
            failures.append("graph walk deduped more than the storage-id oracle")
        return failures


def _build_workload(
    vocab_size: int,
    dim: int,
    n_layers: int,
    n_heads: int,
    hidden_dim: int,
    seq_len: int,
    batch: int,
    seed: int,
) -> tuple[nn.Transformer, Tensor]:
    model = nn.Transformer(
        vocab_size=vocab_size,
        dim=dim,
        n_layers=n_layers,
        n_heads=n_heads,
        hidden_dim=hidden_dim,
        max_seq_len=seq_len,
        seed=seed,
    )
    model.to(GPU)
    rng = np.random.default_rng(seed)
    tokens = Tensor.from_numpy(
        rng.integers(0, vocab_size, size=(batch, seq_len)).astype(np.int64),
        device=GPU,
    )
    return model, tokens


def _run_strategy(
    strategy: str,
    model: nn.Transformer,
    tokens: Tensor,
    hop_budget: int,
    repeats: int,
) -> StrategyRow:
    """Time ``repeats`` steps; stats come from the last one."""
    best = float("inf")
    pipeline = None
    for _ in range(max(1, repeats)):
        pipeline = SavedTensorPipeline(
            EDKMConfig(
                marshal=True,
                uniquify=False,
                shard=False,
                group=None,
                hop_budget=hop_budget,
                search_strategy=strategy,
            )
        )
        t0 = time.perf_counter()
        with pipeline.step():
            logits = model(tokens)
            (logits * logits).sum().backward()
        best = min(best, time.perf_counter() - t0)
    stats = pipeline.stats
    reconcile = (
        stats.copies_made + stats.copies_avoided == stats.tensors_packed
        and stats.probes(strategy) == stats.tensors_packed
        and stats.strategy_hits.get(strategy, 0) == stats.copies_avoided
    )
    return StrategyRow(
        strategy=strategy,
        wall_seconds=best,
        tensors_packed=stats.tensors_packed,
        copies_made=stats.copies_made,
        copies_avoided=stats.copies_avoided,
        bytes_copied=stats.bytes_copied,
        bytes_avoided=stats.bytes_avoided,
        graph_nodes_visited=stats.graph_nodes_visited,
        counters_reconcile=reconcile,
    )


def run_marshal_strategies(
    vocab_size: int = 128,
    dim: int = 64,
    n_layers: int = 2,
    n_heads: int = 4,
    hidden_dim: int = 128,
    seq_len: int = 16,
    batch: int = 2,
    hop_budget: int = 4,
    repeats: int = 3,
    seed: int = 0,
) -> MarshalBenchResult:
    """Every search strategy on one identical training step."""
    result = MarshalBenchResult(
        config={
            "dim": dim,
            "hidden_dim": hidden_dim,
            "n_layers": n_layers,
            "seq_len": seq_len,
            "repeats": repeats,
            "hop_budget": hop_budget,
        }
    )
    for strategy in SEARCH_STRATEGIES:
        model, tokens = _build_workload(
            vocab_size, dim, n_layers, n_heads, hidden_dim, seq_len, batch, seed
        )
        result.rows.append(
            _run_strategy(strategy, model, tokens, hop_budget, repeats)
        )
    result.all_reconcile = all(row.counters_reconcile for row in result.rows)
    return result


def run(quick: bool = False, seed: int = 0) -> MarshalBenchResult:
    """``python -m repro.bench marshal``; quick = smaller model, one repeat."""
    if quick:
        return run_marshal_strategies(
            dim=32, hidden_dim=64, seq_len=8, repeats=1, seed=seed
        )
    return run_marshal_strategies(seed=seed)
