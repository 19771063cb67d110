"""Worker-residency tests for the process engine (``repro/core/procpool.py``).

The contract under test: ``backend="process"`` pins each layer to one
worker slot deterministically, keeps worker-side step caches and shm
leases resident across sweeps, ships ``O(k)`` deltas instead of full
tasks once a layer is synced -- and stays *bit-identical* to the serial
backend (centroids, assignments, reconstruction errors, gradients, and
per-layer ``FastPathStats`` counters) through warm sweeps, pool resizes,
worker crashes, stale-cache recoveries, and sweep errors.  Placement,
gossip, and the chaos matrix live in ``tests/test_sharded.py``.
"""

import dataclasses
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    CompressorConfig,
    DKMConfig,
    LayerDelta,
    LayerTask,
    ModelCompressor,
    WorkerCacheRegistry,
)
from repro.core.compressor import SWEEP_OPS
from repro.core.procpool import StaleWorkerCache
from repro.memory.traffic import global_ledger
from repro.tensor.dtype import bfloat16
from repro.tensor.serialization import export_tensor_shm
from repro.tensor.tensor import Tensor


class _Stack(nn.Module):
    def __init__(self, n_layers=4, in_f=32, out_f=24, seed=0):
        super().__init__()
        for i in range(n_layers):
            setattr(
                self,
                f"layer{i}",
                nn.Linear(in_f, out_f, bias=False, rng=np.random.default_rng(seed + i)),
            )


def _compressor(backend, num_workers=2, n_layers=4, seed=0, **config_kwargs):
    stack = _Stack(n_layers=n_layers, seed=seed)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=3, iters=3),
        config=CompressorConfig(
            backend=backend, num_workers=num_workers, **config_kwargs
        ),
    )
    compressor.compress(stack)
    return compressor, stack


def _stats(compressor):
    return {
        name: dataclasses.asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


def _assert_results_equal(reference, candidate):
    assert list(reference) == list(candidate)
    for name in reference:
        assert np.array_equal(reference[name].centroids, candidate[name].centroids), name
        assert np.array_equal(reference[name].assignments, candidate[name].assignments)
        assert reference[name].temperature == candidate[name].temperature
        assert (
            reference[name].reconstruction_error
            == candidate[name].reconstruction_error
        )


def _kill_one_worker(engine):
    """Hard-kill the first slot worker that has a live process."""
    for slot, pool in enumerate(engine._state["slots"]):
        processes = list((pool._processes or {}).values())
        if processes:
            processes[0].kill()
            processes[0].join()
            return slot
    raise AssertionError("no live slot worker to kill")


def _assert_all_unlinked(names):
    assert names
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestWorkerCacheRegistry:
    """In-process exercises of the worker-side cache (no pool spawn)."""

    def _task(self, seed=0, warm=False, epoch=1, n=512):
        values = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
        tensor = Tensor.from_numpy(values * 0.1, dtype=bfloat16)
        export = export_tensor_shm(tensor)
        task = LayerTask(
            name="layer0",
            handle=export.handle,
            dkm_config=DKMConfig(bits=3, iters=2),
            state=None,
            warm=warm,
            epoch=epoch,
        )
        return export, task

    def test_full_then_delta_reuses_resident_cache(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        try:
            first = registry.run(SWEEP_OPS["refine"], task, {})
            assert first.stats.uniquify_misses == 1
            with registry._lock:  # white-box peek (tsan-clean)
                lease = registry._entries["layer0"].lease
            delta = LayerDelta(
                name="layer0",
                version=task.handle.version,
                epoch=task.epoch,
                state=first.state,
                warm=True,
            )
            second = registry.run(SWEEP_OPS["refine"], delta, {})
            # Resident products: a real hit with zero recompute shipped as
            # a pure delta (first sweep's counters not double-counted).
            assert second.stats.uniquify_hits == 1
            assert second.stats.uniquify_misses == 0
            with registry._lock:
                assert registry._entries["layer0"].lease is lease  # pinned
            assert np.array_equal(first.state.centroids, second.state.centroids)
        finally:
            registry.close()
            export.close()

    def test_cold_delta_raises_stale(self):
        registry = WorkerCacheRegistry()
        delta = LayerDelta(name="ghost", version=0, epoch=1, state=None, warm=False)
        with pytest.raises(StaleWorkerCache):
            registry.run(SWEEP_OPS["refine"], delta, {})

    def test_epoch_and_version_mismatches_raise_stale(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        try:
            outcome = registry.run(SWEEP_OPS["refine"], task, {})
            bad_epoch = LayerDelta(
                name="layer0",
                version=task.handle.version,
                epoch=task.epoch + 1,
                state=outcome.state,
                warm=True,
            )
            with pytest.raises(StaleWorkerCache, match="epoch"):
                registry.run(SWEEP_OPS["refine"], bad_epoch, {})
            bad_version = LayerDelta(
                name="layer0",
                version=task.handle.version + 1,
                epoch=task.epoch,
                state=outcome.state,
                warm=True,
            )
            with pytest.raises(StaleWorkerCache, match="version"):
                registry.run(SWEEP_OPS["refine"], bad_version, {})
        finally:
            registry.close()
            export.close()

    def test_not_warm_delta_recomputes_like_serial_miss(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        try:
            outcome = registry.run(SWEEP_OPS["refine"], task, {})
            delta = LayerDelta(
                name="layer0",
                version=task.handle.version,
                epoch=task.epoch,
                state=outcome.state,
                warm=False,  # parent invalidated (release_step_caches)
            )
            second = registry.run(SWEEP_OPS["refine"], delta, {})
            assert second.stats.uniquify_misses == 1
            assert second.stats.uniquify_hits == 0
        finally:
            registry.close()
            export.close()

    def test_bytes_limit_evicts_to_phantom_without_counter_drift(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        try:
            registry.run(SWEEP_OPS["refine"], task, {}, bytes_limit=1)
            # Everything evicted down to a phantom entry...
            assert registry.resident_bytes() == 0
            with registry._lock:  # white-box peek (tsan-clean)
                entry = registry._entries["layer0"]
            delta = LayerDelta(
                name="layer0",
                version=task.handle.version,
                epoch=task.epoch,
                state=entry.clusterer.state,
                warm=True,
            )
            outcome = registry.run(SWEEP_OPS["refine"], delta, {}, bytes_limit=1)
            # ...so the next sweep still counts a (phantom) hit.
            assert outcome.stats.uniquify_hits == 1
            assert outcome.stats.uniquify_misses == 0
        finally:
            registry.close()
            export.close()

    def test_close_releases_leases(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        registry.run(SWEEP_OPS["refine"], task, {})
        registry.close()
        assert len(registry) == 0
        export.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=task.handle.shm_name)


class TestStickyEquivalence:
    def test_pinning_identical_across_engines(self):
        a, _ = _compressor("process")
        b, _ = _compressor("process")
        try:
            a.precluster()
            b.precluster()
            assert a._engine.placement() == b._engine.placement()
        finally:
            a.close()
            b.close()

    def test_bit_identical_to_serial_over_two_sweeps(self):
        serial, _ = _compressor("serial")
        process, _ = _compressor("process")
        try:
            for sweep in range(2):
                res_s = serial.precluster(compute_error=True)
                res_p = process.precluster(compute_error=True)
                _assert_results_equal(res_s, res_p)
                assert _stats(serial) == _stats(process), sweep
        finally:
            process.close()

    def test_training_grads_identical_after_sticky_sweeps(self):
        serial, stack_s = _compressor("serial", n_layers=2, seed=7)
        sticky, stack_p = _compressor("process", n_layers=2, seed=7)
        try:
            for _ in range(2):  # second sweep runs the delta path
                serial.precluster()
                sticky.precluster()
            x = np.random.default_rng(11).standard_normal((5, 32)).astype(np.float32)
            for stack in (stack_s, stack_p):
                stack.train()
                out = stack.layer0(Tensor.from_numpy(x, device="gpu"))
                (out * out).sum().backward()
            grad_s = stack_s.layer0.inner.weight.grad
            grad_p = stack_p.layer0.inner.weight.grad
            assert grad_s is not None and grad_p is not None
            assert np.array_equal(grad_s.numpy(), grad_p.numpy())
            assert _stats(serial) == _stats(sticky)
        finally:
            sticky.close()

    def test_warm_sweep_ships_only_deltas_and_fewer_bytes(self):
        sticky, _ = _compressor("process")
        try:
            n_layers = len(sticky.wrapped)
            sticky.precluster(compute_error=True)
            cold = sticky.transport_stats()
            assert cold.last_sweep_full_tasks == n_layers
            cold_bytes = cold.last_sweep_bytes
            sticky.precluster(compute_error=True)
            warm = sticky.transport_stats()
            assert warm.last_sweep_full_tasks == 0
            assert warm.last_sweep_delta_tasks == n_layers
            # The acceptance gate: the all-delta sweep pickles strictly
            # fewer bytes per layer than the full-task sweep.
            assert warm.last_sweep_bytes / n_layers < cold_bytes / n_layers
        finally:
            sticky.close()

    def test_bytes_shipped_reconciles_with_ship_ledger(self):
        """One measurement per batch feeds both the transport counters
        and the ``shard:ship`` ledger records -- through cold, warm, and
        crash-recovery (re-shipped) sweeps -- and equals the real pickle."""
        sticky, _ = _compressor("process")
        ledger = global_ledger()
        before = ledger.total_bytes(tag_prefix="shard:ship:")
        shipped: list[int] = []
        try:
            engine = sticky._process_engine()
            record_batch = engine.transport.record_batch

            def spy(tasks, nbytes):
                shipped.append(
                    len(pickle.dumps(tasks, protocol=pickle.HIGHEST_PROTOCOL))
                )
                record_batch(tasks, nbytes)

            engine.transport.record_batch = spy
            sticky.precluster()
            sticky.precluster()
            _kill_one_worker(engine)
            sticky.precluster()
            transport = sticky.transport_stats()
            assert transport.bytes_shipped == sum(shipped) > 0
            assert (
                ledger.total_bytes(tag_prefix="shard:ship:") - before
                == transport.bytes_shipped
            )
        finally:
            sticky.close()

    def test_optimizer_write_demotes_layer_to_full_shipping(self):
        sticky, _ = _compressor("process", n_layers=2)
        try:
            sticky.precluster()
            sticky.precluster()
            assert sticky.transport_stats().last_sweep_full_tasks == 0
            name, wrapper = next(iter(sticky.wrapped.items()))
            wrapper.inner.weight.copy_(wrapper.inner.weight.numpy() * 0.5)
            sticky.precluster()
            transport = sticky.transport_stats()
            # Exactly the written layer re-ships full; the other stays delta.
            assert transport.last_sweep_full_tasks == 1
            assert transport.last_sweep_delta_tasks == 1
        finally:
            sticky.close()

    def test_worker_cache_limit_stays_bit_identical(self):
        serial, _ = _compressor("serial")
        limited, _ = _compressor("process", worker_cache_bytes_limit=1)
        try:
            for _ in range(2):
                res_s = serial.precluster(compute_error=True)
                res_p = limited.precluster(compute_error=True)
                _assert_results_equal(res_s, res_p)
            assert _stats(serial) == _stats(limited)
        finally:
            limited.close()


class TestStickyResilience:
    def test_worker_crash_recovers_bit_identical_with_no_leaks(self):
        serial, _ = _compressor("serial")
        sticky, _ = _compressor("process")
        try:
            serial.precluster(compute_error=True)
            sticky.precluster(compute_error=True)
            _kill_one_worker(sticky._engine)
            # The crashed slot's layers re-ship full on a respawned worker;
            # results and counters still match a serial two-sweep history.
            res_s = serial.precluster(compute_error=True)
            res_p = sticky.precluster(compute_error=True)
            _assert_results_equal(res_s, res_p)
            assert _stats(serial) == _stats(sticky)
            assert sticky.transport_stats().last_sweep_full_tasks > 0
            names = sticky._engine.active_shm_names()
            sticky.close()
            _assert_all_unlinked(names)
            assert sticky._engine.active_shm_names() == []
        finally:
            sticky.close()

    def test_stale_delta_recovery_reships_full(self):
        serial, _ = _compressor("serial", n_layers=2)
        sticky, _ = _compressor("process", n_layers=2)
        try:
            serial.precluster()
            sticky.precluster()
            engine = sticky._engine
            # Desynchronize the parent's records on purpose: the worker
            # defensively raises StaleWorkerCache and the slot re-ships full.
            for record in engine._sync.values():
                record.epoch += 7
            res_s = serial.precluster(compute_error=True)
            res_p = sticky.precluster(compute_error=True)
            _assert_results_equal(res_s, res_p)
            assert _stats(serial) == _stats(sticky)
        finally:
            sticky.close()

    def test_rebalance_on_pool_resize_stays_bit_identical(self):
        serial, _ = _compressor("serial", n_layers=4)
        sticky, _ = _compressor("process", n_layers=4, num_workers=2)
        try:
            serial.precluster(compute_error=True)
            sticky.precluster(compute_error=True)
            before = sticky._engine.placement()
            sticky.config.num_workers = 3  # pool resize: a minimal rebalance
            res_s = serial.precluster(compute_error=True)
            res_p = sticky.precluster(compute_error=True)
            after = sticky._engine.placement()
            assert after.n_nodes == 3
            assert after.pins != before.pins  # the fresh slot took work
            assert after.is_balanced()
            _assert_results_equal(res_s, res_p)
            assert _stats(serial) == _stats(sticky)
        finally:
            sticky.close()

    def test_pool_resize_ships_full_only_for_moved_layers(self):
        """Growing the pool 2 -> 3 must not tear the surviving workers
        down: only the layers re-pinned onto the fresh slot lose their
        residency and ship full; the unmoved ones keep shipping deltas."""
        sticky, _ = _compressor("process", n_layers=4, num_workers=2)
        try:
            sticky.precluster()
            sticky.precluster()
            assert sticky.transport_stats().last_sweep_delta_tasks == 4
            sticky.config.num_workers = 3
            sticky.precluster()
            transport = sticky.transport_stats()
            assert 0 < transport.last_sweep_full_tasks < 4
            assert (
                transport.last_sweep_delta_tasks
                == 4 - transport.last_sweep_full_tasks
            )
        finally:
            sticky.close()

    def test_layer_set_change_at_same_width_stays_correct(self):
        """Re-pinning without a pool resize (layer set changed) must not
        poison results: moved layers re-ship full to their new owners and
        the old owners are told to drop them."""
        from repro.core import DKMClusterer
        from repro.core.procpool import ProcessLayerEngine

        def layer(i):
            values = np.random.default_rng(i).standard_normal(256).astype(np.float32)
            tensor = Tensor.from_numpy(values * 0.1, dtype=bfloat16, device="gpu")
            return (f"layer{i}", DKMClusterer(DKMConfig(bits=3, iters=2)), tensor)

        layers_a = [layer(0), layer(1), layer(2), layer(3)]
        layers_b = layers_a[:2] + [layer(4), layer(5)]  # two swapped out
        config = CompressorConfig(backend="process", num_workers=2)
        with ProcessLayerEngine(config) as engine:
            first = engine.map_layers("refine", layers_a)
            for name, clusterer, _ in layers_a:  # the compressor merge step
                clusterer.state = first[name].state
            outcomes = engine.map_layers("refine", layers_b)  # same width
            assert list(outcomes) == [name for name, _, _ in layers_b]
            # Serial reference over the same two-sweep history.
            for (name, clusterer, weights), reference_layer in zip(
                layers_b, [layer(0), layer(1), layer(4), layer(5)]
            ):
                ref_name, ref_clusterer, ref_weights = reference_layer
                ref_clusterer.refine(ref_weights)
                if name in ("layer0", "layer1"):
                    ref_clusterer.refine(ref_weights)  # second sweep
                assert np.array_equal(
                    outcomes[name].state.centroids, ref_clusterer.state.centroids
                ), name

    def test_reset_reexports_instead_of_reusing_stale_keys(self):
        """A sweep error must not leave stale (storage, version) exports
        or sync records behind: the next sweep re-exports every layer.

        A lost shm block no longer fails a sweep (the engine re-exports
        and re-ships, see ``test_faults.py``), so the error here is a
        genuine op failure -- a bad kwarg raising in the worker -- which
        is outside the recovery taxonomy and must reset the engine.
        """
        sticky, _ = _compressor("process", n_layers=2)
        serial, _ = _compressor("serial", n_layers=2)
        try:
            sticky.precluster()
            serial.precluster()
            engine = sticky._engine
            old_names = set(engine.active_shm_names())
            assert engine._sync  # layers synced after a clean sweep
            layers = [
                (name, wrapper.clusterer, wrapper.inner.weight)
                for name, wrapper in sticky.wrapped.items()
            ]
            with pytest.raises(TypeError):
                engine.map_layers("refine", layers, bogus_kwarg=True)
            # reset() ran: exports unlinked AND sync records forgotten.
            assert engine.active_shm_names() == []
            assert engine._sync == {}
            res_p = sticky.precluster(compute_error=True)
            res_s = serial.precluster(compute_error=True)
            new_names = set(engine.active_shm_names())
            assert new_names and new_names.isdisjoint(old_names)  # re-exported
            assert sticky.transport_stats().last_sweep_full_tasks == 2
            _assert_results_equal(res_s, res_p)
        finally:
            sticky.close()
