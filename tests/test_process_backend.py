"""Process-pool compression backend tests (see ``repro/core/procpool.py``).

The contract under test: ``backend="process"`` is *bit-identical* to
``backend="serial"`` -- centroids, assignments, palettized artifacts,
reconstruction errors, per-layer step-cache counters, and the gradients of
a subsequent training step -- across repeated sweeps (the warm-cache
path), while every shared-memory block the engine exports is verifiably
unlinked on ``close()`` and on any sweep error.
"""

import dataclasses
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    CompressorConfig,
    DKMConfig,
    ModelCompressor,
)
from repro.core.fastpath import StepCache
from repro.tensor.dtype import bfloat16
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


def _assert_all_unlinked(names):
    assert names  # the engine must actually have exported something
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestBackendConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            CompressorConfig(backend="gpu")

    def test_unknown_mp_context_rejected(self):
        with pytest.raises(ValueError, match="mp_context"):
            CompressorConfig(mp_context="teleport")

    def test_serial_backend_forces_one_worker(self):
        assert CompressorConfig(backend="serial", num_workers=8).resolve_workers(8) == 1


class TestProcessEquivalence:
    def test_precluster_bit_identical_and_stats_match_over_two_sweeps(self):
        serial, _ = _compressor("serial")
        process, _ = _compressor("process")
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
        serial, stack_s = _compressor("serial", seed=3)
        process, stack_p = _compressor("process", seed=3)
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
        serial, stack_s = _compressor("serial", n_layers=2, seed=7)
        process, stack_p = _compressor("process", n_layers=2, seed=7)
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
        process, _ = _compressor("process")
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
        process, _ = _compressor("process")
        serial, _ = _compressor("serial")
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
        process, _ = _compressor("process")
        with process:
            process.precluster()
            names = process._engine.active_shm_names()
        _assert_all_unlinked(names)

    def test_optimizer_write_triggers_reexport(self):
        process, _ = _compressor("process", n_layers=2)
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
