"""Placement and chaos tests for the process engine (see
``repro/core/procpool.py`` and ``docs/sharding.md``).

The contract under test, in three layers:

- **Placement properties** (hypothesis): over randomized layer-size
  distributions, :func:`place_layers` honors the byte-balance bound
  ``max load <= mean load + largest layer`` and is a deterministic
  function of its input.
- **Equivalence**: the process engine over ``num_workers >= 2`` nodes is
  *bit-identical* to serial -- centroids, temperatures, and per-layer
  ``FastPathStats`` counters -- through cold sweeps and warm
  delta-shipped sweeps, while every parent <-> node transfer lands in
  the traffic ledger under a ``shard:*`` tag.
- **Chaos matrix**: every compression-engine
  :data:`~repro.core.faults.FAULT_KINDS` fault, injected into a cold and a warm sweep, is survived with results still
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
    LayerTask,
    ModelCompressor,
    RetryPolicy,
    RobustnessWarning,
)
from repro.core.faults import FAULT_KINDS
from repro.core.procpool import ProcessLayerEngine, place_layers
from repro.memory.traffic import global_ledger

COMPRESSION_KINDS = [k for k, (engine, _, _) in FAULT_KINDS.items() if engine == "compression"]


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


def _compressor(num_workers=1, n_layers=4, seed=0, dims=None, **config_kwargs):
    stack = _Stack(n_layers=n_layers, seed=seed, dims=dims)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=3, iters=3),
        config=CompressorConfig(num_workers=num_workers, **config_kwargs),
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
    serial, _ = _compressor(**kwargs)
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


def _loads(pins, sized, n_nodes):
    sizes = dict(sized)
    loads = [0] * n_nodes
    for name, node in pins.items():
        loads[node] += sizes[name]
    return loads


class TestPlacementProperties:
    """Randomized invariants of the byte-balanced greedy packer."""

    @given(layer_sizes, st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_balance_bound(self, sizes, n_nodes):
        pins = place_layers(_sized(sizes), n_nodes)
        assert set(pins) == {name for name, _ in _sized(sizes)}
        loads = _loads(pins, _sized(sizes), n_nodes)
        assert max(loads) <= sum(sizes) / n_nodes + max(sizes)

    @given(layer_sizes, st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_determinism(self, sizes, n_nodes):
        sized = _sized(sizes)
        first = place_layers(sized, n_nodes)
        # A pure function of the (name, size) set: input order is irrelevant.
        assert place_layers(list(reversed(sized)), n_nodes) == first

    def test_bytes_beat_counts(self):
        """One huge embedding is placed alone; count-balancing would not."""
        sized = [("embed", 1000), ("a", 10), ("b", 10), ("c", 10), ("d", 10)]
        pins = place_layers(sized, 2)
        assert [n for n, node in pins.items() if node == pins["embed"]] == ["embed"]

    def test_empty_layer_set(self):
        assert place_layers([], 2) == {}


class TestShardedConfig:
    def test_no_backend_field(self):
        """``num_workers`` alone picks the engine: the retired ``backend``
        keyword is rejected, and so is a persisted config that carries it."""
        with pytest.raises(TypeError, match="backend"):
            CompressorConfig(backend="process", num_workers=3)
        with pytest.raises(ValueError, match="backend"):
            CompressorConfig.from_dict({"backend": "thread", "num_workers": 2})

    def test_round_trip(self):
        config = CompressorConfig(num_workers=4)
        restored = CompressorConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.num_workers == 4


# ----------------------------------------------------------------------
# The engine: process == serial, placement / wire-format behavior
# ----------------------------------------------------------------------


class TestShardedEquivalence:
    @pytest.mark.timeout(120)
    def test_cold_and_warm_bit_identical_to_serial(self):
        serial, _ = _compressor()
        sharded, _ = _compressor(num_workers=2)
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
                assert f"shard:gather:node{node}" in tags
        finally:
            serial.close()
            sharded.close()

    @pytest.mark.timeout(120)
    def test_byte_balanced_placement_and_shm_cleanup(self):
        # One layer 16x the others: byte-balance isolates it.
        dims = [(24, 256), (24, 16), (24, 16), (24, 16), (24, 16)]
        sharded, _ = _compressor(dims=dims, num_workers=2)
        try:
            sharded.refine_all()
            engine = sharded._engine
            pins = engine.placement()
            assert [n for n, node in pins.items() if node == pins["layer0"]] == [
                "layer0"
            ]
        finally:
            sharded.close()
        assert engine.active_shm_names() == []

    @pytest.mark.timeout(180)
    def test_placement_determinism_across_engines(self):
        a, _ = _compressor(num_workers=2)
        b, _ = _compressor(num_workers=2)
        try:
            a.refine_all()
            b.refine_all()
            assert a._engine.placement() == b._engine.placement()
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Chaos matrix -- every fault kind x {cold, warm} sweep
# ----------------------------------------------------------------------


class TestShardedChaosMatrix:
    """6 compression fault kinds x {cold sweep, warm sweep} = 12 cells,
    each required to stay bit-identical to undisturbed serial with the
    fault log and ledger reconciling against what was injected."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _serial_reference(n_sweeps=2)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("kind", COMPRESSION_KINDS)
    @pytest.mark.parametrize("sweep", [1, 2], ids=["cold", "warm"])
    def test_cell(self, kind, sweep, reference):
        ref_states, ref_stats = reference
        plan = FaultPlan.single(kind, sweep=sweep, seconds=0.2)
        sharded, _ = _compressor(
            num_workers=2,
            fault_plan=plan,
            retry=RetryPolicy(timeout_s=15.0),
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
        """Both nodes' batches hang far past ``retry.timeout_s``: slot
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
            num_workers=2,
            fault_plan=plan,
            retry=RetryPolicy(timeout_s=1.0),
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
            CompressorConfig(num_workers=2)
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
            CompressorConfig(num_workers=2)
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
