"""Strategy-equivalence suite for the marshal search strategies.

On a forward graph whose views all sit within the hop budget, the paper's
``graph`` walk must dedup the identical set of storages as the
``storage-id`` oracle, and every strategy's ``PipelineStats`` counters
must reconcile:
``copies_made + copies_avoided == tensors_packed == hits + misses``.
"""

import numpy as np
import pytest

import repro.tensor as rt
from repro.core import EDKMConfig, MarshalRegistry, SavedPayload, SavedTensorPipeline
from repro.core.marshal import SEARCH_STRATEGIES


def _gpu_matrix(n=24, seed=0):
    values = np.random.default_rng(seed).standard_normal((n, n)).astype(np.float32)
    return rt.Tensor.from_numpy(values, device="gpu", requires_grad=True)


def _pipeline(strategy):
    """A pipeline whose ``events`` list gets ``(nbytes, hit)`` per packed
    device tensor, in pack order."""
    pipeline = SavedTensorPipeline(
        EDKMConfig(marshal=True, uniquify=False, shard=False, group=None)
    )
    pipeline.registry = MarshalRegistry(strategy)
    pipeline.events = []
    pack = pipeline._pack

    def recording_pack(tensor):
        copies = pipeline.stats.copies_made
        payload = pack(tensor)
        if isinstance(payload, SavedPayload):  # a device tensor: a hit or a copy
            pipeline.events.append(
                (tensor.storage.nbytes, pipeline.stats.copies_made == copies)
            )
        return payload

    pipeline._pack = recording_pack
    return pipeline


def _run_step(pipeline, seed=0):
    """A forward graph with 0-hop, 1-hop, and sibling-view saved tensors."""
    x = _gpu_matrix(seed=seed)
    with pipeline.step():
        v = x.view(-1)
        w = x.transpose(0, 1)
        loss = (x * x).sum() + (v**2.0).sum() + (w @ x).sum()
        loss.backward()
    return pipeline


class TestStrategyEquivalence:
    def test_graph_dedups_same_storages_as_oracle(self):
        oracle = _run_step(_pipeline("storage-id"))
        graph = _run_step(_pipeline("graph"))
        # Same workload -> same pack order; equal event streams mean the
        # two strategies deduped the identical set of storages.
        assert graph.events == oracle.events
        assert sum(hit for _, hit in graph.events) == graph.stats.copies_avoided
        assert len(graph.events) == graph.stats.tensors_packed
        assert graph.stats.copies_avoided == oracle.stats.copies_avoided > 0
        assert graph.stats.bytes_copied == oracle.stats.bytes_copied

    @pytest.mark.parametrize("strategy", SEARCH_STRATEGIES)
    def test_counters_reconcile(self, strategy):
        stats = _run_step(_pipeline(strategy)).stats
        assert stats.tensors_packed > 0
        assert stats.copies_made + stats.copies_avoided == stats.tensors_packed
        assert stats.probes(strategy) == stats.tensors_packed
        assert stats.strategy_hits.get(strategy, 0) == stats.copies_avoided
        assert stats.strategy_misses.get(strategy, 0) == stats.copies_made

    def test_graph_probe_cost_recorded(self):
        stats = _run_step(_pipeline("graph")).stats
        assert stats.graph_nodes_visited > 0
        assert _run_step(_pipeline("storage-id")).stats.graph_nodes_visited == 0

    def test_gradients_identical_across_strategies(self):
        grads = {}
        for strategy in SEARCH_STRATEGIES:
            x = _gpu_matrix(seed=7)
            with _pipeline(strategy).step():
                (rt.ops.softmax(x @ x, dim=1) ** 2).sum().backward()
            grads[strategy] = x.grad.numpy()
        reference = grads["graph"]
        for strategy, grad in grads.items():
            assert np.array_equal(grad, reference), strategy


class TestBenchDriver:
    """Fig. 2's lookup-strategy rows: one transformer step per strategy."""

    def test_quick_bench_asserts_hold(self):
        from repro.bench.fig2 import run_strategy_step

        rows = {s: run_strategy_step(s) for s in SEARCH_STRATEGIES}
        assert all(row.counters_reconcile for row in rows.values())
        assert rows["graph"].tensors_packed == rows["storage-id"].tensors_packed > 0
        # The oracle is the walk's ceiling, at zero probe cost.
        assert rows["graph"].copies_avoided <= rows["storage-id"].copies_avoided
        assert rows["graph"].nodes_per_probe > 0
        assert rows["storage-id"].nodes_per_probe == 0
