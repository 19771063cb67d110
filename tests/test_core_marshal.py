"""Tests for cross-device tensor marshaling (registry and graph walk)."""

import gc
import weakref

import numpy as np
import pytest

import repro.tensor as rt
from repro.core.config import EDKMConfig
from repro.core.marshal import MarshalRegistry, OffloadEntry


def _gpu_tensor(shape=(8, 8), seed=0, requires_grad=True):
    values = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    return rt.Tensor.from_numpy(
        values, device="gpu", requires_grad=requires_grad
    )


def _entry_for(tensor):
    host = rt.Tensor.from_numpy(
        tensor.numpy().reshape(-1), dtype=tensor.dtype, device="cpu"
    )
    return OffloadEntry(host)


class TestRegistryBasics:
    def test_register_and_find_same_tensor(self):
        registry = MarshalRegistry()
        t = _gpu_tensor()
        registry.register(t, _entry_for(t))
        entry, hops, trace = registry.find(t, hop_budget=4)
        assert entry is not None
        assert hops == 0
        assert trace == []

    def test_miss_returns_none(self):
        registry = MarshalRegistry()
        entry, _, _ = registry.find(_gpu_tensor(), 4)
        assert entry is None

    def test_clear(self):
        registry = MarshalRegistry()
        t = _gpu_tensor()
        registry.register(t, _entry_for(t))
        registry.clear()
        assert len(registry) == 0
        assert registry.find(t, 4)[0] is None

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            MarshalRegistry("bogus")

    def test_dead_registered_tensor_not_resolved(self):
        registry = MarshalRegistry()
        base = _gpu_tensor()
        view = base.view(-1)
        registry.register(view, _entry_for(view))
        del view
        gc.collect()
        # The registered tensor (an intermediate) is dead: the walk from the
        # live base must not resolve its stale entry.
        entry, _, _ = registry.find(base, 4)
        assert entry is None

    def test_walk_through_dead_intermediates(self):
        """Autograd nodes persist after intermediate tensors die, so a view
        chain whose middles were garbage collected is still walkable."""
        registry = MarshalRegistry()
        x0 = _gpu_tensor()
        x3 = x0.view(-1).view(8, 8).transpose(0, 1)  # middles die immediately
        gc.collect()
        registry.register(x0, _entry_for(x0))
        entry, hops, trace = registry.find(x3, 4)
        assert entry is not None
        assert hops == 3
        assert trace == ["Transpose", "View", "View"]


class TestGraphWalk:
    def test_one_hop_parent(self):
        """Pack x0 first; a view of x0 resolves via its producing op."""
        registry = MarshalRegistry()
        x0 = _gpu_tensor()
        x1 = x0.view(-1, 1)
        registry.register(x0, _entry_for(x0))
        entry, hops, trace = registry.find(x1, 4)
        assert entry is not None
        assert hops == 1
        assert trace == ["View"]

    def test_one_hop_child(self):
        """Pack the view first; the base resolves via consumer edges."""
        registry = MarshalRegistry()
        x0 = _gpu_tensor()
        x1 = x0.view(-1, 1)
        registry.register(x1, _entry_for(x1))
        entry, hops, _ = registry.find(x0, 4)
        assert entry is not None
        assert hops == 1

    def test_multi_hop_chain(self):
        registry = MarshalRegistry()
        x0 = _gpu_tensor()
        x1 = x0.view(-1)
        x2 = x1.view(8, 8)
        x3 = x2.transpose(0, 1)
        registry.register(x0, _entry_for(x0))
        entry, hops, trace = registry.find(x3, 4)
        assert entry is not None
        assert hops == 3
        assert trace == ["Transpose", "View", "View"]

    def test_hop_budget_limits_search(self):
        registry = MarshalRegistry()
        x0 = _gpu_tensor()
        x3 = x0.view(-1).view(8, 8).transpose(0, 1)
        registry.register(x0, _entry_for(x0))
        assert registry.find(x3, 2)[0] is None
        assert registry.find(x3, 3)[0] is not None

    def test_walk_does_not_cross_data_ops(self):
        """Non-storage-invariant ops (e.g. Mul) are not walkable edges."""
        registry = MarshalRegistry()
        x0 = _gpu_tensor()
        y = x0 * 2.0  # new storage
        registry.register(x0, _entry_for(x0))
        entry, _, _ = registry.find(y, 4)
        assert entry is None

    def test_sibling_views_resolve_through_base(self):
        """view A -> base -> view B is a 2-hop path."""
        registry = MarshalRegistry()
        x0 = _gpu_tensor()
        a = x0.view(-1)
        b = x0.transpose(0, 1)
        registry.register(a, _entry_for(a))
        entry, hops, _ = registry.find(b, 4)
        assert entry is not None
        assert hops == 2

    def test_storage_id_oracle_matches_graph(self):
        graph, oracle = MarshalRegistry(), MarshalRegistry("storage-id")
        x0 = _gpu_tensor()
        x1 = x0.view(-1, 1)
        entry = _entry_for(x0)
        graph.register(x0, entry)
        oracle.register(x0, entry)
        graph_entry, _, _ = graph.find(x1, 4)
        oracle_entry, hops, _ = oracle.find(x1, 4)
        assert graph_entry is oracle_entry is entry
        assert hops == 0

    def test_slice_view_resolves(self):
        registry = MarshalRegistry()
        x0 = _gpu_tensor()
        s = x0[2:5]
        registry.register(x0, _entry_for(x0))
        entry, hops, trace = registry.find(s, 4)
        assert entry is not None
        assert trace == ["Slice"]


def _dead_ref():
    class _Gone:
        pass

    obj = _Gone()
    ref = weakref.ref(obj)
    del obj
    gc.collect()
    assert ref() is None
    return ref


class TestStaleIdEviction:
    """A stale id detected on either table must evict *both* sides.

    CPython recycles object addresses after garbage collection, so a dead
    counterpart left behind by a one-sided eviction could later resolve a
    recycled id to the wrong entry.  The dead weakrefs are installed by
    hand because forcing the allocator to actually recycle a specific id
    is nondeterministic.
    """

    def _register_with_dead_refs(self, strategy="graph"):
        registry = MarshalRegistry(strategy)
        t = _gpu_tensor()
        registry.register(t, _entry_for(t))
        tid, sid = id(t), id(t.storage)
        dead = _dead_ref()
        _, entry, skey = registry._by_tensor_id[tid]
        registry._by_tensor_id[tid] = (dead, entry, skey)
        _, entry, tkey = registry._by_storage_id[sid]
        registry._by_storage_id[sid] = (dead, entry, tkey)
        return registry, t, tid, sid

    def test_stale_tensor_id_evicts_storage_side(self):
        registry, t, tid, sid = self._register_with_dead_refs()
        entry, _, _ = registry.find(t, 4)  # _lookup_tensor sees stale
        assert entry is None
        assert tid not in registry._by_tensor_id
        assert sid not in registry._by_storage_id

    def test_stale_storage_id_evicts_tensor_side(self):
        registry, t, tid, sid = self._register_with_dead_refs("storage-id")
        entry, _, _ = registry.find(t, 4)
        assert entry is None
        assert sid not in registry._by_storage_id
        assert tid not in registry._by_tensor_id

    def test_eviction_spares_unrelated_reregistration(self):
        """If the counterpart slot was re-claimed by a newer entry, the
        stale eviction must not take the newer entry down with it."""
        registry, t, tid, sid = self._register_with_dead_refs()
        # A fresh registration overwrites the storage slot with a new entry.
        fresh = _entry_for(t)
        live_ref = weakref.ref(t.storage)
        registry._by_storage_id[sid] = (live_ref, fresh, id(t))
        registry._evict_tensor_key(tid)
        assert tid not in registry._by_tensor_id
        assert registry._by_storage_id[sid][1] is fresh


class TestOffloadEntry:
    def test_gpu_cache_weakrefs_storage(self):
        t = _gpu_tensor((4, 4))
        entry = _entry_for(t)
        cached = rt.Tensor.from_numpy(t.numpy().reshape(-1), device="gpu")
        entry.cache_gpu(cached)
        assert entry.cached_gpu_storage() is cached.storage
        # Another tensor sharing the storage keeps the cache alive.
        alias = cached.view(4, 4)
        del cached
        gc.collect()
        assert entry.cached_gpu_storage() is alias.storage
        del alias
        gc.collect()
        assert entry.cached_gpu_storage() is None


class TestConfigValidation:
    def test_default_config_is_constructible(self):
        """Regression: ``EDKMConfig()`` used to raise because the dataclass
        defaults were ``shard=True, group=None`` -- mutually inconsistent."""
        config = EDKMConfig()
        assert config.offload and config.marshal and config.uniquify
        assert config.shard is False  # auto-downgraded: no learner group

    def test_shard_auto_enables_with_group(self):
        from repro.distributed import LearnerGroup

        assert EDKMConfig(group=LearnerGroup(2)).shard is True

    def test_explicit_shard_false_with_group_stays_false(self):
        from repro.distributed import LearnerGroup

        assert EDKMConfig(shard=False, group=LearnerGroup(2)).shard is False

    def test_shard_requires_group(self):
        with pytest.raises(ValueError, match="LearnerGroup"):
            EDKMConfig(shard=True, group=None)

    def test_strategy_is_not_a_config_field(self):
        """The lookup strategy is a ``MarshalRegistry`` argument: only the
        Fig. 2 ablation and the tests pick the storage-id oracle."""
        with pytest.raises(TypeError, match="search_strategy"):
            EDKMConfig(shard=False, group=None, search_strategy="graph")

    def test_negative_hop_budget(self):
        with pytest.raises(ValueError):
            EDKMConfig(shard=False, group=None, hop_budget=-1)

    def test_baseline_has_no_optimizations(self):
        config = EDKMConfig.baseline_offload()
        assert config.offload
        assert not config.marshal and not config.uniquify and not config.shard
