"""Placement, gossip and chaos tests for the process engine (see
``repro/distributed/scheduler.py``, ``repro/core/procpool.py`` and
``docs/sharding.md``).

The contract under test, in three layers:

- **Placement properties** (hypothesis): over randomized layer-size
  distributions, :class:`NodePlacement` honors the byte-balance bound
  ``max load <= mean load + largest layer``, is a deterministic function
  of its input, moves the minimum set of layers on node add/remove, and
  never exceeds a positive per-node budget.
- **Equivalence**: ``backend="process"`` over ``num_workers`` nodes is
  *bit-identical* to serial -- centroids, temperatures, and per-layer
  ``FastPathStats`` counters -- through cold sweeps, warm delta-shipped
  sweeps, and node resizes, while every parent <-> node transfer lands
  in the traffic ledger under a ``shard:*`` tag.
- **Chaos matrix**: every :data:`~repro.core.faults.FAULT_KINDS` fault,
  injected into a cold and a warm sweep, is survived with results still
  bit-identical to an undisturbed serial run and the fault log / ledger
  reconciling with what was injected.
"""

import dataclasses
import warnings
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.core import (
    CompressorConfig,
    DKMConfig,
    FaultPlan,
    FaultSpec,
    LayerDelta,
    LayerTask,
    ModelCompressor,
    RobustnessWarning,
    WorkerCacheRegistry,
)
from repro.core.compressor import SWEEP_OPS
from repro.core.faults import FAULT_KINDS
from repro.core.procpool import (
    ProcessLayerEngine,
    StaleWorkerCache,
    _run_slot_batch,
    _worker_cache_registry,
)
from repro.distributed import NodePlacement, PlacementError
from repro.memory.traffic import global_ledger
from repro.tensor.dtype import bfloat16
from repro.tensor.serialization import export_tensor_shm
from repro.tensor.tensor import Tensor


class _Stack(nn.Module):
    def __init__(self, n_layers=4, in_f=24, out_f=32, seed=0, dims=None):
        super().__init__()
        dims = dims or [(in_f, out_f)] * n_layers
        for i, (i_f, o_f) in enumerate(dims):
            setattr(
                self,
                f"layer{i}",
                nn.Linear(i_f, o_f, bias=False, rng=np.random.default_rng(seed + i)),
            )


def _compressor(backend, n_layers=4, seed=0, dims=None, **config_kwargs):
    stack = _Stack(n_layers=n_layers, seed=seed, dims=dims)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=3, iters=3),
        config=CompressorConfig(backend=backend, **config_kwargs),
    )
    compressor.compress(stack)
    return compressor, stack


def _stats(compressor):
    return {
        name: dataclasses.asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


def _states(compressor):
    return {
        name: (
            wrapper.clusterer.state.centroids.copy(),
            wrapper.clusterer.state.temperature,
        )
        for name, wrapper in compressor.wrapped.items()
    }


def _assert_identical(reference, candidate):
    ref_states, cand_states = _states(reference), _states(candidate)
    assert set(ref_states) == set(cand_states)
    for name in ref_states:
        assert np.array_equal(ref_states[name][0], cand_states[name][0]), name
        assert ref_states[name][1] == cand_states[name][1], name
    assert _stats(reference) == _stats(candidate)


def _serial_reference(n_sweeps=2, **kwargs):
    serial, _ = _compressor("serial", **kwargs)
    try:
        for _ in range(n_sweeps):
            serial.refine_all()
        return _states(serial), _stats(serial)
    finally:
        serial.close()


# ----------------------------------------------------------------------
# Satellite 1: property-based placement
# ----------------------------------------------------------------------

layer_sizes = st.lists(st.integers(1, 1_000_000), min_size=1, max_size=24)


def _sized(sizes):
    return [(f"layer{i}", size) for i, size in enumerate(sizes)]


class TestPlacementProperties:
    """Randomized invariants of the byte-balanced greedy packer."""

    @given(layer_sizes, st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_balance_bound(self, sizes, n_nodes):
        placement = NodePlacement.build(_sized(sizes), n_nodes)
        assert placement.is_balanced()
        assert max(placement.loads()) <= sum(sizes) / n_nodes + max(sizes)

    @given(layer_sizes, st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_determinism(self, sizes, n_nodes):
        first = NodePlacement.build(_sized(sizes), n_nodes)
        second = NodePlacement.build(_sized(sizes), n_nodes)
        assert first.pins == second.pins
        assert first.loads() == second.loads()

    @given(layer_sizes, st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_node_add_minimal_movement(self, sizes, n_nodes):
        before = NodePlacement.build(_sized(sizes), n_nodes)
        after = before.rebalance(_sized(sizes), n_nodes + 1)
        assert after.is_balanced()
        # Layers only ever move; none appear or vanish.
        assert set(after.pins) == set(before.pins)
        # The settle pass never touches a node-balanced placement's pins
        # beyond what the bound demands: every move lands on a node.
        for name, node in after.pins.items():
            assert 0 <= node < n_nodes + 1, name

    @given(layer_sizes, st.integers(2, 6))
    @settings(max_examples=50, deadline=None)
    def test_node_remove_moves_only_orphans(self, sizes, n_nodes):
        before = NodePlacement.build(_sized(sizes), n_nodes)
        after = before.rebalance(_sized(sizes), n_nodes - 1)
        assert after.is_balanced()
        for name, node in before.pins.items():
            if node < n_nodes - 1:  # survivor: pin must not move
                assert after.pins[name] == node, name
            else:  # orphan: must land on a surviving node
                assert 0 <= after.pins[name] < n_nodes - 1, name

    @given(layer_sizes, st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_budget_never_exceeded(self, sizes, n_nodes):
        # A budget at the balance bound is always satisfiable.
        budget = int(sum(sizes) / n_nodes + max(sizes)) + 1
        placement = NodePlacement.build(_sized(sizes), n_nodes, budget=budget)
        assert max(placement.loads()) <= budget

    def test_infeasible_budget_raises(self):
        with pytest.raises(PlacementError, match="exceeds the per-node budget"):
            NodePlacement.build([("big", 100)], 2, budget=50)
        with pytest.raises(PlacementError, match="no node can take"):
            NodePlacement.build(
                [("a", 60), ("b", 60), ("c", 60)], 2, budget=100
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(PlacementError, match="duplicate"):
            NodePlacement.build([("a", 1), ("a", 2)], 2)

    def test_bytes_beat_counts(self):
        """One huge embedding is placed alone; count-balancing would not."""
        sized = [("embed", 1000), ("a", 10), ("b", 10), ("c", 10), ("d", 10)]
        placement = NodePlacement.build(sized, 2)
        embed_node = placement.pins["embed"]
        assert placement.layers_for(embed_node) == ["embed"]
        assert placement.is_balanced()

    def test_empty_layer_set(self):
        placement = NodePlacement.build([], 2)
        assert placement.loads() == [0, 0]
        assert placement.balance_bound() == 0.0
        assert placement.is_balanced()

    def test_rebalance_budget_pressure_rebuilds_cold(self):
        """An orphan that cannot fit while keeping survivors forces a
        cold rebuild -- which here succeeds by splitting them up."""
        before = NodePlacement.build(
            [("a", 60), ("b", 60), ("c", 60), ("d", 60)], 2
        )
        after = before.rebalance([("a", 60), ("b", 60), ("e", 100)], 2, budget=130)
        assert max(after.loads()) <= 130
        assert after.layers_for(after.pins["e"]) == ["e"]

    def test_rebalance_budget_shrink_below_survivors_raises(self):
        """Survivors over a tightened budget rebuild cold; a layer too
        big for any node still raises."""
        before = NodePlacement.build([("a", 50), ("b", 50)], 2)
        with pytest.raises(PlacementError, match="exceeds the per-node budget"):
            before.rebalance([("a", 90), ("b", 90)], 2, budget=80)

    def test_is_balanced_detects_injected_imbalance(self):
        """The audit hook fails on an everything-on-node-zero mutation."""
        sized = [(f"layer{i}", 100) for i in range(4)]
        good = NodePlacement.build(sized, 2)
        assert good.is_balanced()
        mutated = NodePlacement(
            names=good.names,
            sizes=good.sizes,
            n_nodes=good.n_nodes,
            pins={name: 0 for name in good.names},
            budget=good.budget,
        )
        assert not mutated.is_balanced()


class TestShardedConfig:
    def test_backend_registered(self):
        """The node scheduler *is* the process backend; the retired
        ``"sharded"`` name is rejected like any unknown backend."""
        config = CompressorConfig(backend="process", num_workers=3)
        assert config.backend == "process"
        for unknown in ("sharded", "cluster"):
            with pytest.raises(ValueError, match="backend"):
                CompressorConfig(backend=unknown)

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="node_memory_budget"):
            CompressorConfig(node_memory_budget=-1)

    def test_round_trip(self):
        config = CompressorConfig(
            backend="process", num_workers=4, node_memory_budget=1 << 20
        )
        restored = CompressorConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.node_memory_budget == 1 << 20


# ----------------------------------------------------------------------
# The engine: process == serial, placement / wire-format behavior
# ----------------------------------------------------------------------


class TestShardedEquivalence:
    @pytest.mark.timeout(120)
    def test_cold_and_warm_bit_identical_to_serial(self):
        serial, _ = _compressor("serial")
        sharded, _ = _compressor("process", num_workers=2)
        try:
            ledger = global_ledger()
            ledger.clear()
            for _ in range(2):
                serial.refine_all()
                sharded.refine_all()
            _assert_identical(serial, sharded)
            assert sharded.degradations == []
            # Warm sweep shipped O(k) deltas, not full tensors.
            transport = sharded.transport_stats()
            assert transport.last_sweep_delta_tasks == 4
            assert transport.last_sweep_full_tasks == 0
            # Every cross-node transfer is tagged in the ledger.
            tags = {
                record.tag
                for record in ledger.transfers()
                if record.tag.startswith("shard:")
            }
            for node in (0, 1):
                assert f"shard:ship:node{node}" in tags
                assert f"shard:gossip:node{node}" in tags
                assert f"shard:gather:node{node}" in tags
        finally:
            serial.close()
            sharded.close()

    @pytest.mark.timeout(120)
    def test_byte_balanced_placement_and_shm_cleanup(self):
        # One layer 16x the others: byte-balance isolates it.
        dims = [(24, 256), (24, 16), (24, 16), (24, 16), (24, 16)]
        sharded, _ = _compressor("process", dims=dims, num_workers=2)
        try:
            sharded.refine_all()
            engine = sharded._engine
            placement = engine.placement()
            assert placement.is_balanced()
            big_node = placement.pins["layer0"]
            assert placement.layers_for(big_node) == ["layer0"]
        finally:
            sharded.close()
        assert engine.active_shm_names() == []

    @pytest.mark.timeout(120)
    def test_over_budget_model_compresses(self):
        """A model whose bytes exceed one node's budget still compresses."""
        dims = [(24, 256), (24, 16), (24, 16), (24, 16), (24, 16)]
        total = sum(i * o * bfloat16.itemsize for i, o in dims)
        budget = 24 * 256 * bfloat16.itemsize + 24 * 16 * bfloat16.itemsize
        assert total > budget  # would not fit on a single node
        sharded, _ = _compressor(
            "process", dims=dims, num_workers=2, node_memory_budget=budget
        )
        try:
            sharded.refine_all()
            assert max(sharded._engine.placement().loads()) <= budget
            assert sharded.degradations == []
        finally:
            sharded.close()

    @pytest.mark.timeout(120)
    def test_budget_infeasible_on_one_worker_identical_on_two(self):
        """``node_memory_budget`` below the model size: one worker cannot
        place it (``PlacementError``, no silent overcommit, no leaked
        shm), two workers compress it bit-identically to serial."""
        dims = [(24, 256), (24, 16), (24, 16), (24, 16), (24, 16)]
        budget = 24 * 256 * bfloat16.itemsize + 24 * 16 * bfloat16.itemsize
        assert sum(i * o * bfloat16.itemsize for i, o in dims) > budget
        single, _ = _compressor(
            "process", dims=dims, num_workers=1, node_memory_budget=budget
        )
        try:
            with pytest.raises(PlacementError):
                single.refine_all()
            assert single._engine.active_shm_names() == []
            assert single.degradations == []  # not an infrastructure fault
        finally:
            single.close()
        serial, _ = _compressor("serial", dims=dims)
        double, _ = _compressor(
            "process", dims=dims, num_workers=2, node_memory_budget=budget
        )
        try:
            for _ in range(2):
                serial.refine_all()
                double.refine_all()
            _assert_identical(serial, double)
            assert max(double._engine.placement().loads()) <= budget
        finally:
            double.close()

    @pytest.mark.timeout(120)
    def test_single_node_degenerate(self):
        ref_states, ref_stats = _serial_reference(n_sweeps=1)
        sharded, _ = _compressor("process", num_workers=1)
        try:
            sharded.refine_all()
            states = _states(sharded)
            for name in ref_states:
                assert np.array_equal(ref_states[name][0], states[name][0])
            assert _stats(sharded) == ref_stats
        finally:
            sharded.close()

    @pytest.mark.timeout(180)
    def test_placement_determinism_across_engines(self):
        a, _ = _compressor("process", num_workers=2)
        b, _ = _compressor("process", num_workers=2)
        try:
            a.refine_all()
            b.refine_all()
            assert a._engine.placement().pins == b._engine.placement().pins
        finally:
            a.close()
            b.close()


class TestNodeResize:
    @pytest.mark.timeout(180)
    def test_add_and_remove_nodes_mid_run(self):
        """Resizes move the minimum, keep deltas flowing, stay identical."""
        ref_states, ref_stats = _serial_reference(n_sweeps=3)
        sharded, _ = _compressor("process", num_workers=2)
        try:
            sharded.refine_all()
            before = sharded._engine.placement()

            sharded.config.num_workers = 3
            sharded.refine_all()
            grown = sharded._engine.placement()
            moved = [n for n in before.pins if before.pins[n] != grown.pins[n]]
            transport = sharded.transport_stats()
            assert grown.is_balanced()
            # Only the moved layers lose residency; the rest ship deltas.
            assert transport.last_sweep_full_tasks == len(moved)
            assert transport.last_sweep_delta_tasks == 4 - len(moved)
            assert len(moved) <= 2  # minimal movement, not a reshuffle

            sharded.config.num_workers = 2
            sharded.refine_all()
            shrunk = sharded._engine.placement()
            for name, node in grown.pins.items():
                if node < 2:  # survivors keep their pins
                    assert shrunk.pins[name] == node

            states = _states(sharded)
            for name in ref_states:
                assert np.array_equal(ref_states[name][0], states[name][0])
            assert _stats(sharded) == ref_stats
            assert sharded.degradations == []
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# Chaos matrix -- every fault kind x {cold, warm} sweep
# ----------------------------------------------------------------------


class TestShardedChaosMatrix:
    """6 fault kinds x {cold sweep, warm sweep} = 12 cells, each required
    to stay bit-identical to undisturbed serial with the fault log and
    ledger reconciling against what was injected."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _serial_reference(n_sweeps=2)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("sweep", [1, 2], ids=["cold", "warm"])
    def test_cell(self, kind, sweep, reference):
        ref_states, ref_stats = reference
        plan = FaultPlan.single(kind, sweep=sweep, seconds=0.2)
        sharded, _ = _compressor(
            "process", num_workers=2, fault_plan=plan, task_timeout_s=15.0
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RobustnessWarning)
                for _ in range(2):
                    sharded.refine_all()
            states = _states(sharded)
            for name in ref_states:
                assert np.array_equal(ref_states[name][0], states[name][0]), (
                    f"{kind}/sweep{sweep}: centroids diverged on {name}"
                )
                assert ref_states[name][1] == states[name][1], name
            assert _stats(sharded) == ref_stats
            assert sharded.degradations == []
            # Reconciliation: the log records exactly the injected fault
            # (corrupt_delta on the cold sweep is a structural no-op --
            # there is no delta to corrupt yet).
            log = sharded.fault_log()
            assert log is not None
            if kind == "corrupt_delta" and sweep == 1:
                assert log.count(kind) == 0
            else:
                assert log.count(kind) == 1
        finally:
            sharded.close()


class TestStallFallback:
    @pytest.mark.timeout(120)
    def test_every_node_hung_watchdog_recovers(self):
        """Both nodes' batches hang far past ``task_timeout_s``: slot
        by slot the watchdog kills and respawns the node and the full
        re-ship recovers -- bit-identical to serial throughout."""
        ref_states, ref_stats = _serial_reference(n_sweeps=1)
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="hang", sweep=1, layer="layer0", seconds=600.0),
                FaultSpec(kind="hang", sweep=1, layer="layer1", seconds=600.0),
            )
        )
        sharded, _ = _compressor(
            "process", num_workers=2, fault_plan=plan, task_timeout_s=1.0
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RobustnessWarning)
                sharded.refine_all()
            assert sharded._engine.respawns == 2  # every node was put down
            assert sharded.fault_log().count("hang") == 2
            states = _states(sharded)
            for name in ref_states:
                assert np.array_equal(ref_states[name][0], states[name][0])
            assert _stats(sharded) == ref_stats
            assert sharded.degradations == []
        finally:
            sharded.close()


class _BrokenPool:
    """A stand-in executor whose node is already dead at submit time."""

    def submit(self, fn, *args, **kwargs):
        raise BrokenExecutor("node down")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestEngineWhiteBox:
    """Parent-side edges exercised without spawning workers."""

    def _engine(self):
        engine = ProcessLayerEngine(
            CompressorConfig(backend="process", num_workers=2)
        )
        engine._state["slots"] = [_BrokenPool(), _BrokenPool()]
        return engine

    def test_submit_to_dead_node_returns_none(self):
        engine = self._engine()
        task = LayerTask(
            name="layer0",
            handle=None,
            dkm_config=DKMConfig(bits=3, iters=2),
            state=None,
            warm=False,
            epoch=1,
        )
        ledger = global_ledger()
        before = len(ledger.transfers())
        assert engine._submit_slot(0, "refine", {}, [task]) is None
        # Nothing reached the wire, so nothing is counted as shipped.
        assert engine.transport.tasks_shipped == 0
        assert len(ledger.transfers()) == before

    def test_ledger_gather_skips_empty(self):
        """A sweep over no layers ships, gossips and gathers nothing (and
        spawns nothing: executors start their process on first submit)."""
        ledger = global_ledger()
        before = len(ledger.transfers())
        with ProcessLayerEngine(
            CompressorConfig(backend="process", num_workers=2)
        ) as engine:
            assert engine.map_layers("refine", []) == {}
            assert engine.transport.tasks_shipped == 0
        assert len(ledger.transfers()) == before

    def test_ledger_records_both_directions(self):
        engine = self._engine()
        ledger = global_ledger()
        before = len(ledger.transfers())
        engine._ledger(1, "ship", 10)
        engine._ledger(1, "gather", 20)
        ship, gather = ledger.transfers()[before:]
        assert (ship.tag, ship.nbytes) == ("shard:ship:node1", 10)
        assert (gather.tag, gather.nbytes) == ("shard:gather:node1", 20)
        assert (ship.src, ship.dst) == (gather.dst, gather.src)
        assert ship.dst.endswith(":peer2")  # node i owns learner domain i+1

    def test_drain_flushes_tolerates_dead_nodes(self):
        from concurrent.futures import Future

        engine = self._engine()
        done: Future = Future()
        done.set_result([])
        broken: Future = Future()
        broken.set_exception(BrokenExecutor("node down"))
        for slot, future in ((0, None), (0, done), (1, broken)):
            engine._drain_flush(slot, future)
        assert engine.respawns == 0


# ----------------------------------------------------------------------
# Worker-side machinery, in process (no pool spawn)
# ----------------------------------------------------------------------


class TestGossipReconcile:
    """In-process exercises of the node-side gossip reconciliation."""

    def _task(self, name="layer0", seed=0, epoch=1, n=256):
        values = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
        tensor = Tensor.from_numpy(values * 0.1, dtype=bfloat16)
        export = export_tensor_shm(tensor)
        task = LayerTask(
            name=name,
            handle=export.handle,
            dkm_config=DKMConfig(bits=3, iters=2),
            state=None,
            warm=False,
            epoch=epoch,
        )
        return export, task

    def _delta(self, task, outcome, warm=True):
        return LayerDelta(
            name=task.name,
            version=task.handle.version,
            epoch=task.epoch,
            state=outcome.state,
            warm=warm,
        )

    def test_matching_gossip_keeps_residency(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        try:
            first = registry.run(SWEEP_OPS["refine"], task, {})
            gossip = {
                task.name: (task.handle.shm_name, task.handle.version, task.epoch)
            }
            registry.reconcile(gossip)
            second = registry.run(SWEEP_OPS["refine"], self._delta(task, first), {})
            assert second.stats.uniquify_hits == 1
            assert second.stats.uniquify_misses == 0
        finally:
            registry.close()
            export.close()

    def test_absent_from_gossip_prunes(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        try:
            first = registry.run(SWEEP_OPS["refine"], task, {})
            registry.reconcile({})  # coordinator no longer pins it here
            with pytest.raises(StaleWorkerCache):
                registry.run(SWEEP_OPS["refine"], self._delta(task, first), {})
        finally:
            registry.close()
            export.close()

    def test_mismatched_triple_drops_entry(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        try:
            first = registry.run(SWEEP_OPS["refine"], task, {})
            gossip = {
                task.name: (
                    task.handle.shm_name,
                    task.handle.version + 1,  # coordinator re-exported
                    task.epoch,
                )
            }
            registry.reconcile(gossip)
            with pytest.raises(StaleWorkerCache):
                registry.run(SWEEP_OPS["refine"], self._delta(task, first), {})
        finally:
            registry.close()
            export.close()

    def test_run_node_batch_reconciles_then_runs(self):
        export_a, task_a = self._task(name="a", seed=1)
        export_b, task_b = self._task(name="b", seed=2)
        try:
            outcomes = _run_slot_batch(
                "refine", {}, [task_a, task_b], 0,
                {  # gossip mentioning neither is a no-op on a cold registry
                    "ghost": ("shm", 1, 1),
                },
            )
            assert [outcome.name for outcome in outcomes] == ["a", "b"]
            for outcome in outcomes:
                assert outcome.stats.uniquify_misses == 1
        finally:
            _worker_cache_registry().reconcile({})
            export_a.close()
            export_b.close()
