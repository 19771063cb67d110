"""Process engine tests, worker side included (``repro/core/procpool.py``).

The contract under test: ``num_workers >= 2`` picks the process engine,
which is *bit-identical* to the serial loop (``num_workers=1``) -- centroids, assignments, palettized artifacts,
reconstruction errors, per-layer step-cache counters, and the gradients of
a subsequent training step -- across repeated sweeps (the warm-cache
path), while every shared-memory block the engine exports is verifiably
unlinked on ``close()`` and on any sweep error.  Worker residency: each
layer is pinned to one slot deterministically, worker-side step caches and
shm leases stay resident across sweeps, ``O(k)`` deltas replace full tasks
once a layer is synced -- through warm sweeps, worker crashes, stale-cache
recoveries, sweep errors, and the cold restart a width or layer-set
change causes.  Placement properties, parent-side white-box edges and the
chaos matrix live in ``tests/test_sharded.py``.
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
from repro.core.fastpath import StepCache
from repro.core.faults import RobustnessWarning
from repro.core.procpool import StaleWorkerCache, _run_slot_batch, _worker_cache_registry
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


def _compressor(num_workers=2, n_layers=4, seed=0, **config_kwargs):
    stack = _Stack(n_layers=n_layers, seed=seed)
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


def _assert_all_unlinked(names):
    assert names  # the engine must actually have exported something
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


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


class TestEngineSelection:
    def test_one_worker_runs_the_serial_loop(self):
        serial, _ = _compressor(num_workers=1)
        assert serial.active_backend == "serial"
        serial.precluster()
        assert serial._engine is None
        assert serial.transport_stats() is None

    def test_two_workers_run_the_process_engine(self):
        process, _ = _compressor(num_workers=2)
        try:
            assert process.active_backend == "process"
            process.precluster()
            transport = process.transport_stats()
            assert transport is not None
            assert transport.last_sweep_full_tasks == 4
        finally:
            process.close()

    def test_width_capped_at_the_layer_count(self):
        """Four workers over one layer resolve to one: the serial loop."""
        single, _ = _compressor(num_workers=4, n_layers=1)
        assert single.config.resolve_workers(len(single.wrapped)) == 1
        assert single.active_backend == "serial"
        single.precluster()
        assert single.transport_stats() is None

    def test_op_exception_propagates_without_demotion(self):
        """An op bug is deterministic, so it is raised, not absorbed: the
        run stays on the process engine, counts no sweep, and its next
        sweep still matches serial."""
        serial, _ = _compressor(num_workers=1, n_layers=2)
        process, _ = _compressor(n_layers=2)
        try:
            with pytest.raises(TypeError):
                process._sweep("refine", bogus_kwarg=True)
            assert process.active_backend == "process"
            assert process.degradations == []
            assert process.sweeps_completed == 0
            _assert_results_equal(
                serial.precluster(compute_error=True),
                process.precluster(compute_error=True),
            )
        finally:
            process.close()

    def test_demotion_pins_the_serial_loop(self):
        """After a demotion the engine is closed for good: later sweeps
        run on the calling thread, export nothing, and stay
        serial-identical."""
        serial, _ = _compressor(num_workers=1)
        process, _ = _compressor()
        try:
            serial.precluster(compute_error=True)
            process.precluster(compute_error=True)
            names = process._engine.active_shm_names()
            with pytest.warns(RobustnessWarning, match="degrading to 'serial'"):
                process._demote(RuntimeError("simulated node fault"))
            _assert_all_unlinked(names)
            assert process.degradations == [
                ("process", "serial", "RuntimeError: simulated node fault")
            ]
            shipped = process.transport_stats().bytes_shipped
            _assert_results_equal(
                serial.precluster(compute_error=True),
                process.precluster(compute_error=True),
            )
            assert _stats(serial) == _stats(process)
            assert process.active_backend == "serial"
            assert process._engine.active_shm_names() == []
            assert process.transport_stats().bytes_shipped == shipped
        finally:
            process.close()

    def test_map_layers_returns_outcomes_in_input_order(self):
        """Outcomes come back in the caller's layer order, not in slot or
        completion order, whatever the names sort to."""
        from repro.core import DKMClusterer
        from repro.core.procpool import ProcessLayerEngine

        names = ["w6", "a0", "m3", "b1", "z9", "c2", "k5"]
        layers = []
        for seed, name in enumerate(names):
            values = np.random.default_rng(seed).standard_normal(128).astype(np.float32)
            tensor = Tensor.from_numpy(values * 0.1, dtype=bfloat16, device="gpu")
            layers.append((name, DKMClusterer(DKMConfig(bits=2, iters=2)), tensor))
        with ProcessLayerEngine(CompressorConfig(num_workers=3)) as engine:
            outcomes = engine.map_layers("refine", layers)
        assert list(outcomes) == names
        assert [outcome.name for outcome in outcomes.values()] == names


class TestWideEngineDeterminism:
    """Six layers over four slots: uneven per-slot batches (2/2/1/1 or
    similar), still bit- and counter-identical to the serial loop."""

    def test_precluster_bit_identical_to_serial(self):
        serial, _ = _compressor(num_workers=1, n_layers=6)
        process, _ = _compressor(num_workers=4, n_layers=6)
        try:
            res_s = serial.precluster(compute_error=True)
            res_p = process.precluster(compute_error=True)
            _assert_results_equal(res_s, res_p)
            for name in res_s:
                assert res_s[name].centroids.dtype == res_p[name].centroids.dtype
                assert res_s[name].iterations_run == res_p[name].iterations_run
            assert len(set(process._engine.placement().values())) == 4
        finally:
            process.close()

    def test_step_cache_counters_match_serial(self):
        serial, _ = _compressor(num_workers=1, n_layers=6)
        process, _ = _compressor(num_workers=4, n_layers=6)
        try:
            serial.precluster()
            process.precluster()
            report_s = serial.fastpath_report().per_layer
            report_p = process.fastpath_report().per_layer
            assert list(report_s) == list(report_p)
            for name in report_s:
                s, p = report_s[name], report_p[name]
                assert (s.uniquify_hits, s.uniquify_misses) == (
                    p.uniquify_hits,
                    p.uniquify_misses,
                )
                assert (s.table_hits, s.table_misses) == (p.table_hits, p.table_misses)
                # One real uniquify per layer for the whole refine+assign sweep.
                assert p.uniquify_misses == 1
        finally:
            process.close()

    def test_refine_all_matches_per_layer_refine(self):
        process, _ = _compressor(num_workers=4, n_layers=6)
        reference, _ = _compressor(num_workers=1, n_layers=6)
        try:
            states_p = process.refine_all()
        finally:
            process.close()
        states_r = {
            name: wrapper.clusterer.refine(wrapper.inner.weight)
            for name, wrapper in reference.wrapped.items()
        }
        assert list(states_p) == list(states_r)
        for name in states_r:
            assert np.array_equal(states_p[name].centroids, states_r[name].centroids)
            assert states_p[name].temperature == states_r[name].temperature

    def test_finalize_artifacts_bit_identical(self):
        serial, stack_s = _compressor(num_workers=1, n_layers=6)
        process, stack_p = _compressor(num_workers=4, n_layers=6)
        try:
            report_s = serial.finalize(stack_s)
            report_p = process.finalize(stack_p)
        finally:
            process.close()
        assert list(report_s.palettized) == list(report_p.palettized)
        for name, pal_s in report_s.palettized.items():
            pal_p = report_p.palettized[name]
            assert np.array_equal(pal_s.lut, pal_p.lut)
            assert np.array_equal(pal_s.packed, pal_p.packed)
        assert report_s.total_bytes == report_p.total_bytes

    def test_process_is_repeatable(self):
        first, _ = _compressor(num_workers=4, n_layers=6)
        second, _ = _compressor(num_workers=4, n_layers=6)
        try:
            res_a = first.precluster()
            res_b = second.precluster()
            assert first._engine.placement() == second._engine.placement()
        finally:
            first.close()
            second.close()
        for name in res_a:
            assert np.array_equal(res_a[name].centroids, res_b[name].centroids)
            assert np.array_equal(res_a[name].assignments, res_b[name].assignments)


class TestProcessEquivalence:
    def test_precluster_bit_identical_and_stats_match_over_two_sweeps(self):
        serial, _ = _compressor(num_workers=1)
        process, _ = _compressor()
        try:
            for sweep in range(2):  # second sweep exercises the warm path
                res_s = serial.precluster(compute_error=True)
                res_p = process.precluster(compute_error=True)
                assert list(res_s) == list(res_p)
                for name in res_s:
                    assert np.array_equal(
                        res_s[name].centroids, res_p[name].centroids
                    ), (sweep, name)
                    assert np.array_equal(
                        res_s[name].assignments, res_p[name].assignments
                    )
                    assert res_s[name].temperature == res_p[name].temperature
                    assert res_s[name].iterations_run == res_p[name].iterations_run
                    assert (
                        res_s[name].reconstruction_error
                        == res_p[name].reconstruction_error
                    )
                assert _stats(serial) == _stats(process), sweep
        finally:
            process.close()

    def test_refine_all_and_finalize_match_serial(self):
        serial, stack_s = _compressor(num_workers=1, seed=3)
        process, stack_p = _compressor(seed=3)
        try:
            states_s = serial.refine_all(cache_table=True)
            states_p = process.refine_all(cache_table=True)
            assert list(states_s) == list(states_p)
            for name in states_s:
                assert np.array_equal(
                    states_s[name].centroids, states_p[name].centroids
                )
                assert states_s[name].temperature == states_p[name].temperature
            report_s = serial.finalize(stack_s)
            report_p = process.finalize(stack_p)
            assert list(report_s.palettized) == list(report_p.palettized)
            for name, pal_s in report_s.palettized.items():
                pal_p = report_p.palettized[name]
                assert np.array_equal(pal_s.lut, pal_p.lut)
                assert np.array_equal(pal_s.packed, pal_p.packed)
            assert report_s.total_bytes == report_p.total_bytes
            assert _stats(serial) == _stats(process)
        finally:
            process.close()

    def test_training_grads_identical_after_process_sweep(self):
        serial, stack_s = _compressor(num_workers=1, n_layers=2, seed=7)
        process, stack_p = _compressor(n_layers=2, seed=7)
        try:
            serial.precluster()
            process.precluster()
            x = np.random.default_rng(11).standard_normal((5, 32)).astype(np.float32)
            for stack in (stack_s, stack_p):
                stack.train()
                out = stack.layer0(Tensor.from_numpy(x, device="gpu"))
                (out * out).sum().backward()
            grad_s = stack_s.layer0.inner.weight.grad
            grad_p = stack_p.layer0.inner.weight.grad
            assert grad_s is not None and grad_p is not None
            assert np.array_equal(grad_s.numpy(), grad_p.numpy())
            # The forward's table lookups and uniquify hits must also agree:
            # the process merge re-parked the carried attention table.
            assert _stats(serial) == _stats(process)
        finally:
            process.close()


class TestWorkerLifecycle:
    def test_shm_cleaned_after_close(self):
        process, _ = _compressor()
        process.precluster()
        names = process._engine.active_shm_names()
        process.close()
        _assert_all_unlinked(names)
        assert process._engine.active_shm_names() == []

    def test_poisoned_export_recovers_transparently(self):
        # A lost/unreachable shm block used to fail the sweep with a raw
        # FileNotFoundError; it now surfaces worker-side as the typed
        # ShmLost and the engine re-exports + re-ships without the caller
        # ever seeing an error.
        process, _ = _compressor()
        serial, _ = _compressor(num_workers=1)
        process.precluster()
        serial.precluster()
        engine = process._engine
        # Poison one layer's export: the worker's attach will fail exactly
        # as it would after an external unlink (a crashed/mis-cleaned peer).
        name = next(iter(process.wrapped))
        export = engine._state["exports"][name]
        poisoned_block = export.name
        export.handle = dataclasses.replace(
            export.handle, shm_name="repro_test_poisoned_block"
        )
        again = process.precluster()  # survives: ShmLost -> re-export
        reference = serial.precluster()
        for layer in reference:
            assert np.array_equal(reference[layer].centroids, again[layer].centroids)
        assert _stats(serial) == _stats(process)
        # The poisoned layer's original block was released during recovery...
        _assert_all_unlinked([poisoned_block])
        # ...and everything rebuilt in its place is cleaned up by close().
        names = engine.active_shm_names()
        assert names  # recovery re-exported live blocks
        process.close()
        _assert_all_unlinked(names)

    def test_context_manager_closes(self):
        process, _ = _compressor()
        with process:
            process.precluster()
            names = process._engine.active_shm_names()
        _assert_all_unlinked(names)

    def test_optimizer_write_triggers_reexport(self):
        process, _ = _compressor(n_layers=2)
        try:
            process.precluster()
            engine = process._engine
            name, wrapper = next(iter(process.wrapped.items()))
            old_handle = engine._state["exports"][name].handle
            # An in-place optimizer-style write bumps the storage version...
            wrapper.inner.weight.copy_(wrapper.inner.weight.numpy() * 0.5)
            wrapper.clusterer.state = None
            process.precluster()
            new_handle = engine._state["exports"][name].handle
            # ...so the stale block was replaced, not served.
            assert new_handle.shm_name != old_handle.shm_name
            assert new_handle.version > old_handle.version
        finally:
            process.close()


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

    def test_close_releases_leases(self):
        export, task = self._task()
        registry = WorkerCacheRegistry()
        registry.run(SWEEP_OPS["refine"], task, {})
        registry.close()
        assert len(registry) == 0
        export.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=task.handle.shm_name)

    def test_run_slot_batch_runs_tasks_in_order(self):
        """The worker entry point, driven in-process (the process-global
        registry is drained afterwards so no lease outlives the test)."""
        exports, tasks = zip(*(self._task(seed=seed) for seed in (1, 2)))
        tasks = [dataclasses.replace(task, name=name) for task, name in zip(tasks, "ab")]
        try:
            outcomes = _run_slot_batch("refine", {}, tasks)
            assert [outcome.name for outcome in outcomes] == ["a", "b"]
            for outcome in outcomes:
                assert outcome.stats.uniquify_misses == 1
        finally:
            _worker_cache_registry().close()
            for export in exports:
                export.close()


class TestStickyEquivalence:
    def test_training_grads_identical_after_sticky_sweeps(self):
        serial, stack_s = _compressor(num_workers=1, n_layers=2, seed=7)
        sticky, stack_p = _compressor(n_layers=2, seed=7)
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
        sticky, _ = _compressor()
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
        sticky, _ = _compressor()
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
        sticky, _ = _compressor(n_layers=2)
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


class TestStickyResilience:
    def test_worker_crash_recovers_bit_identical_with_no_leaks(self):
        serial, _ = _compressor(num_workers=1)
        sticky, _ = _compressor()
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
        serial, _ = _compressor(num_workers=1, n_layers=2)
        sticky, _ = _compressor(n_layers=2)
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

    def test_width_change_restarts_cold_bit_identical(self):
        """Width is fixed for an engine generation: a changed
        ``num_workers`` makes the next sweep a cold start (every layer
        ships full onto fresh workers, no block of the old generation
        stays linked), after which deltas flow again -- bit- and
        stats-identical to serial throughout."""
        serial, _ = _compressor(num_workers=1, n_layers=4)
        sticky, _ = _compressor(n_layers=4, num_workers=2)
        try:
            serial.precluster(compute_error=True)
            sticky.precluster(compute_error=True)
            engine = sticky._engine
            old_pins = engine.placement()
            old_names = engine.active_shm_names()
            sticky.config.num_workers = 3
            for expected_full in (4, 0):  # cold restart, then warm again
                res_s = serial.precluster(compute_error=True)
                res_p = sticky.precluster(compute_error=True)
                _assert_results_equal(res_s, res_p)
                assert _stats(serial) == _stats(sticky)
                transport = sticky.transport_stats()
                assert transport.last_sweep_full_tasks == expected_full
                assert transport.last_sweep_delta_tasks == 4 - expected_full
            _assert_all_unlinked(old_names)
            assert set(engine.active_shm_names()).isdisjoint(old_names)
            assert set(engine.placement().values()) == {0, 1, 2}
            assert engine.placement() != old_pins
            assert engine.respawns == 0  # a restart, not a failure
        finally:
            sticky.close()

    def test_layer_set_change_restarts_cold_bit_identical(self):
        """The layer set is fixed for an engine generation too: dropping
        a layer (same width) restarts cold and stays serial-identical."""
        serial, _ = _compressor(num_workers=1, n_layers=4)
        sticky, _ = _compressor(n_layers=4, num_workers=2)
        try:
            serial.precluster(compute_error=True)
            sticky.precluster(compute_error=True)
            old_names = sticky._engine.active_shm_names()
            for compressor in (serial, sticky):
                del compressor.wrapped["layer3"]
            for expected_full in (3, 0):
                res_s = serial.precluster(compute_error=True)
                res_p = sticky.precluster(compute_error=True)
                _assert_results_equal(res_s, res_p)
                assert _stats(serial) == _stats(sticky)
                transport = sticky.transport_stats()
                assert transport.last_sweep_full_tasks == expected_full
            _assert_all_unlinked(old_names)
            assert set(sticky._engine.placement()) == {"layer0", "layer1", "layer2"}
        finally:
            sticky.close()

    def test_layer_set_change_at_same_width_stays_correct(self):
        """Re-pinning without a pool resize (layer set changed) must not
        poison results: the engine restarts cold, so every layer ships
        full to its new owner and no old worker survives to serve it."""
        from repro.core import DKMClusterer
        from repro.core.procpool import ProcessLayerEngine

        def layer(i):
            values = np.random.default_rng(i).standard_normal(256).astype(np.float32)
            tensor = Tensor.from_numpy(values * 0.1, dtype=bfloat16, device="gpu")
            return (f"layer{i}", DKMClusterer(DKMConfig(bits=3, iters=2)), tensor)

        layers_a = [layer(0), layer(1), layer(2), layer(3)]
        layers_b = layers_a[:2] + [layer(4), layer(5)]  # two swapped out
        config = CompressorConfig(num_workers=2)
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
        sticky, _ = _compressor(n_layers=2)
        serial, _ = _compressor(num_workers=1, n_layers=2)
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


class TestPhantomStepCache:
    def _weights(self):
        values = np.random.default_rng(0).standard_normal(256).astype(np.float32)
        return Tensor.from_numpy(values * 0.1, dtype=bfloat16)

    def test_mark_computed_makes_next_uniquify_a_hit(self):
        weights = self._weights()
        cache = StepCache()
        cache.mark_computed(weights, bfloat16)
        assert cache.is_warm(weights, bfloat16)
        unique = cache.uniquify(weights, bfloat16)
        assert cache.stats.uniquify_hits == 1
        assert cache.stats.uniquify_misses == 0
        # Promoted to resident: the same object comes back.
        assert cache.uniquify(weights, bfloat16) is unique
        assert cache.stats.uniquify_hits == 2

    def test_mark_computed_keeps_resident_entry(self):
        weights = self._weights()
        cache = StepCache()
        unique = cache.uniquify(weights, bfloat16)
        cache.mark_computed(weights, bfloat16)
        assert cache.uniquify(weights, bfloat16) is unique

    def test_mark_computed_invalidated_by_version_bump(self):
        weights = self._weights()
        cache = StepCache()
        cache.mark_computed(weights, bfloat16)
        weights.copy_(weights.numpy() * 2.0)
        assert not cache.is_warm(weights, bfloat16)
        cache.uniquify(weights, bfloat16)
        assert cache.stats.uniquify_misses == 1

    def test_store_table_accepted_on_phantom_entry(self):
        weights = self._weights()
        reference = StepCache()
        unique = reference.uniquify(weights, bfloat16)
        centroids = np.linspace(-0.2, 0.2, 8, dtype=np.float32)
        from repro.core.uniquify import attention_table

        table = attention_table(unique.values, centroids, 0.01)
        cache = StepCache()
        cache.store_table(centroids, 0.01, table)  # no entry at all: ignored
        assert cache.lookup_table(centroids, 0.01) is None
        cache.mark_computed(weights, bfloat16)
        cache.store_table(centroids, 0.01, table)  # phantom entry: accepted
        assert cache.lookup_table(centroids, 0.01) is table

    def test_absorb_folds_counter_deltas(self):
        from repro.core.fastpath import FastPathStats

        cache = StepCache()
        cache.stats.uniquify_misses = 1
        cache.absorb(FastPathStats(uniquify_hits=2, table_hits=1, table_misses=3))
        assert cache.stats.uniquify_hits == 2
        assert cache.stats.uniquify_misses == 1
        assert cache.stats.table_hits == 1
        assert cache.stats.table_misses == 3
