"""Experiment: paper Fig. 2 -- marshaling removes the CPU-side duplicate.

The Table 1 scenario expressed as saved tensors of an autograd step: a
forward pass saves both ``x0`` and its view ``x1`` for backward; the offload
pipeline copies them to CPU.  Without marshaling the CPU holds two 4 MB
storages; with marshaling the second save resolves -- via the forward-graph
walk -- to a reference plus the view-op metadata ("the required ops for
future retrieval").

Two ablations ride along.  The hop budget: how many hops the walk needs.
The lookup strategy: the paper's bounded ``graph`` walk against the
``storage-id`` oracle (which dedups every repeated storage, so it is the
ceiling the walk is judged against), on the ``x0`` scenario and on one
training step of a small transformer -- tensors packed, copies avoided
and graph nodes dequeued per probe.  Every number is a count at one fixed
shape, so the rendered table is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.nn as nn
from repro.bench.tables import PaperTable, render_table
from repro.core.config import EDKMConfig
from repro.core.marshal import SEARCH_STRATEGIES, MarshalRegistry
from repro.core.offload import SavedTensorPipeline
from repro.memory import global_ledger, profile_memory
from repro.tensor.device import CPU, GPU
from repro.tensor.tensor import Tensor

MB = 1024 * 1024


@dataclass
class Fig2Result:
    marshal: bool
    cpu_peak_mb: float
    offload_traffic_mb: float
    offload_transactions: int
    copies_made: int
    copies_avoided: int
    hops_histogram: dict[int, int]


def _pipeline(marshal: bool, hop_budget: int = 4, strategy: str = "graph"):
    pipeline = SavedTensorPipeline(
        EDKMConfig(
            marshal=marshal,
            uniquify=False,
            shard=False,
            group=None,
            hop_budget=hop_budget,
        )
    )
    pipeline.registry = MarshalRegistry(strategy)
    return pipeline


def _saved_tensor_scenario(pipeline: SavedTensorPipeline) -> None:
    """Forward graph where x0 and a view of it are both saved for backward.

    ``x0 * x0`` saves x0 twice (same tensor object: a 0-hop marshaling hit);
    ``x1 ** 3`` saves the view x1, whose storage is reachable from the
    already-offloaded x0 through one View edge (a 1-hop hit).
    """
    rng = np.random.default_rng(0)
    x0 = Tensor.from_numpy(
        rng.random((1024, 1024), dtype=np.float32), device=GPU, requires_grad=True
    )
    with pipeline.step():
        x1 = x0.view(-1, 1)
        loss = (x0 * x0).sum() + (x1**3.0).sum()
        loss.backward()


def run_fig2(marshal: bool, hop_budget: int = 4, strategy: str = "graph") -> Fig2Result:
    pipeline = _pipeline(marshal, hop_budget, strategy)
    with profile_memory([CPU.tracker], global_ledger()) as prof:
        _saved_tensor_scenario(pipeline)
    return Fig2Result(
        marshal=marshal,
        cpu_peak_mb=prof.peak_delta("cpu") / MB,
        offload_traffic_mb=prof.traffic("gpu", "cpu") / MB,
        offload_transactions=prof.transactions("gpu", "cpu"),
        copies_made=pipeline.stats.copies_made,
        copies_avoided=pipeline.stats.copies_avoided,
        hops_histogram=dict(pipeline.stats.hops_histogram),
    )


HOP_BUDGETS = (0, 1, 2, 4, 6)


def run_hop_budget_sweep(budgets: tuple[int, ...] = HOP_BUDGETS) -> list[Fig2Result]:
    """Ablation: how many hops the graph walk needs (paper: 4 suffices)."""
    return [run_fig2(marshal=True, hop_budget=b) for b in budgets]


@dataclass
class StrategyStepRow:
    """One lookup strategy's counters over one transformer training step."""

    strategy: str
    tensors_packed: int
    copies_avoided: int
    graph_nodes_visited: int
    counters_reconcile: bool

    @property
    def nodes_per_probe(self) -> float:
        """Graph nodes dequeued per probe (the identity oracle walks none)."""
        return self.graph_nodes_visited / max(self.tensors_packed, 1)


def run_strategy_step(strategy: str) -> StrategyStepRow:
    """Forward + backward of a 2-layer transformer under one strategy.

    The counters must reconcile: ``copies_made + copies_avoided ==
    tensors_packed`` and the strategy's hits + misses == ``tensors_packed``
    with hits == ``copies_avoided``.
    """
    model = nn.Transformer(
        vocab_size=128,
        dim=64,
        n_layers=2,
        n_heads=4,
        hidden_dim=128,
        max_seq_len=16,
        seed=0,
    )
    model.to(GPU)
    tokens = Tensor.from_numpy(
        np.random.default_rng(0).integers(0, 128, size=(2, 16)).astype(np.int64),
        device=GPU,
    )
    pipeline = _pipeline(marshal=True, strategy=strategy)
    with pipeline.step():
        logits = model(tokens)
        (logits * logits).sum().backward()
    stats = pipeline.stats
    return StrategyStepRow(
        strategy=strategy,
        tensors_packed=stats.tensors_packed,
        copies_avoided=stats.copies_avoided,
        graph_nodes_visited=stats.graph_nodes_visited,
        counters_reconcile=(
            stats.copies_made + stats.copies_avoided == stats.tensors_packed
            and stats.probes(strategy) == stats.tensors_packed
            and stats.strategy_hits.get(strategy, 0) == stats.copies_avoided
        ),
    )


@dataclass
class Fig2BenchResult(PaperTable):
    """Fig. 2 plus its two ablations (hop budget, lookup strategy)."""

    base: Fig2Result
    marshal: Fig2Result
    hop_sweep: list[Fig2Result]
    oracle: Fig2Result
    steps: list[StrategyStepRow]

    def render(self) -> str:
        steps = {row.strategy: row for row in self.steps}
        return "\n\n".join(
            [
                render_table(
                    ["config", "CPU peak (MB)", "offload traffic (MB)", "copies",
                     "avoided", "hits by hop"],
                    [
                        [label, r.cpu_peak_mb, r.offload_traffic_mb, r.copies_made,
                         r.copies_avoided, str(r.hops_histogram)]
                        for label, r in (
                            ("no marshaling", self.base),
                            ("with marshaling", self.marshal),
                        )
                    ],
                    title="Fig. 2: cross-device tensor marshaling "
                    "(x0, x1 = x0.view scenario)",
                ),
                render_table(
                    ["hop budget", "CPU peak (MB)", "copies avoided", "hits by hop"],
                    [
                        [b, r.cpu_peak_mb, r.copies_avoided, str(r.hops_histogram)]
                        for b, r in zip(HOP_BUDGETS, self.hop_sweep)
                    ],
                    title="Fig. 2 ablation: graph-walk hop budget (paper: 4 suffices)",
                ),
                render_table(
                    ["strategy", "CPU peak (MB)", "copies avoided", "step packed",
                     "step avoided", "step nodes/probe"],
                    [
                        [label, r.cpu_peak_mb, r.copies_avoided, step.tensors_packed,
                         step.copies_avoided, step.nodes_per_probe]
                        for label, r, step in (
                            ("graph walk (paper)", self.marshal, steps["graph"]),
                            ("storage-id oracle", self.oracle, steps["storage-id"]),
                        )
                    ],
                    title="Fig. 2 ablation: lookup strategy "
                    "(step = one 2-layer transformer training step)",
                ),
            ]
        )

    def failures(self) -> list[str]:
        base, marshal, sweep = self.base, self.marshal, self.hop_sweep
        steps = {row.strategy: row for row in self.steps}
        checks = [
            (marshal.cpu_peak_mb < base.cpu_peak_mb,
             "fig2: marshaling did not lower the CPU peak"),
            (marshal.offload_traffic_mb < base.offload_traffic_mb,
             "fig2: marshaling did not lower the offload traffic"),
            (marshal.copies_avoided == 2,
             f"fig2: expected 2 avoided copies, got {marshal.copies_avoided}"),
            # Budget 0 misses the view-chain case; budget >= 1 is converged here.
            (sweep[0].copies_avoided < sweep[1].copies_avoided,
             "fig2: hop budget 0 dedups as much as budget 1"),
            (sweep[1].cpu_peak_mb == sweep[-1].cpu_peak_mb,
             "fig2: CPU peak still moves past hop budget 1"),
            (marshal.copies_avoided == self.oracle.copies_avoided,
             "fig2: graph walk and storage-id oracle dedup differently"),
            (steps["graph"].copies_avoided <= steps["storage-id"].copies_avoided,
             "fig2: graph walk avoided more step copies than the storage-id oracle"),
        ]
        checks += [
            (row.counters_reconcile,
             f"fig2: {row.strategy} step counters do not reconcile with "
             "tensors_packed")
            for row in self.steps
        ]
        return [message for ok, message in checks if not ok]


def run(quick: bool = False, seed: int = 0) -> Fig2BenchResult:
    """``python -m repro.bench fig2`` (one fixed shape; seed unused)."""
    return Fig2BenchResult(
        base=run_fig2(marshal=False),
        marshal=run_fig2(marshal=True),
        hop_sweep=run_hop_budget_sweep(),
        oracle=run_fig2(marshal=True, strategy="storage-id"),
        steps=[run_strategy_step(strategy) for strategy in SEARCH_STRATEGIES],
    )
