"""Parallel compression-engine tests (ISSUE 2).

The thread-pool layer fan-out must be *bit-identical* to the serial sweep:
per-layer clustering shares no state across layers, every layer is handed
to exactly one worker, and results are gathered in layer insertion order.
That covers centroids, hard assignments, palettized artifacts, and the
per-layer step-cache hit/miss counters.

The chunked dense fallback must reproduce the monolithic dense composition
exactly (forward and gradient) while bounding its buffers at
``row_chunk x k``, and the monolithic path must refuse layers whose dense
buffers would exceed ``dense_saved_bytes_limit``.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    CompressorConfig,
    DKMConfig,
    ModelCompressor,
    parallel_layer_map,
)
from repro.core.dkm import DKMClusterer
from repro.core.edkm import edkm_cluster
from repro.tensor.dtype import bfloat16
from repro.tensor.tensor import Tensor


class _Stack(nn.Module):
    def __init__(self, n_layers=6, in_f=32, out_f=24, seed=0):
        super().__init__()
        for i in range(n_layers):
            setattr(
                self,
                f"layer{i}",
                nn.Linear(in_f, out_f, bias=False, rng=np.random.default_rng(seed + i)),
            )


def _compressor(num_workers, n_layers=6, seed=0, bits=3, iters=3):
    stack = _Stack(n_layers=n_layers, seed=seed)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=bits, iters=iters),
        config=CompressorConfig(num_workers=num_workers),
    )
    compressor.compress(stack)
    return compressor, stack


class TestParallelLayerMap:
    def test_serial_and_parallel_preserve_input_order(self):
        items = [(f"t{i}", i) for i in range(17)]
        serial = parallel_layer_map(lambda x: x * x, items, num_workers=1)
        parallel = parallel_layer_map(lambda x: x * x, items, num_workers=4)
        assert list(serial) == [name for name, _ in items]
        assert serial == parallel

    def test_exceptions_propagate(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("task 3 failed")
            return x

        with pytest.raises(RuntimeError, match="task 3"):
            parallel_layer_map(boom, [(f"t{i}", i) for i in range(8)], num_workers=4)

    def test_single_task_runs_on_caller_thread(self):
        import threading

        seen = []
        parallel_layer_map(
            lambda _: seen.append(threading.current_thread()),
            [("only", None)],
            num_workers=8,
        )
        assert seen == [threading.main_thread()]


class TestCompressorConfig:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            CompressorConfig(num_workers=-1)

    def test_resolve_workers_caps_at_task_count(self):
        assert CompressorConfig(num_workers=16).resolve_workers(3) == 3
        assert CompressorConfig(num_workers=2).resolve_workers(9) == 2
        assert CompressorConfig(num_workers=1).resolve_workers(0) == 1

    def test_zero_means_cpu_count(self):
        import os

        expected = max(1, min(os.cpu_count() or 1, 64))
        assert CompressorConfig(num_workers=0).resolve_workers(64) == expected

    def test_legacy_keywords_still_apply(self):
        compressor = ModelCompressor(
            DKMConfig(bits=3), embedding_bits=6, skip_names=("layer0",)
        )
        assert compressor.embedding_bits == 6
        assert compressor.skip_names == ("layer0",)

    def test_config_object_wins(self):
        compressor = ModelCompressor(
            DKMConfig(bits=3),
            config=CompressorConfig(num_workers=3, skip_names=("layer1",)),
        )
        assert compressor.config.num_workers == 3
        assert compressor.skip_names == ("layer1",)

    def test_mixing_config_and_legacy_keywords_rejected(self):
        with pytest.raises(ValueError, match="CompressorConfig"):
            ModelCompressor(
                DKMConfig(bits=3), embedding_bits=4, config=CompressorConfig()
            )
        with pytest.raises(ValueError, match="CompressorConfig"):
            ModelCompressor(
                DKMConfig(bits=3), skip_names=("lm_head",), config=CompressorConfig()
            )


class TestParallelDeterminism:
    def test_precluster_bit_identical_to_serial(self):
        serial, _ = _compressor(num_workers=1)
        parallel, _ = _compressor(num_workers=4)
        res_s = serial.precluster(compute_error=True)
        res_p = parallel.precluster(compute_error=True)
        assert list(res_s) == list(res_p)  # layer insertion order
        for name in res_s:
            assert np.array_equal(res_s[name].centroids, res_p[name].centroids)
            assert res_s[name].centroids.dtype == res_p[name].centroids.dtype
            assert np.array_equal(res_s[name].assignments, res_p[name].assignments)
            assert res_s[name].temperature == res_p[name].temperature
            assert res_s[name].iterations_run == res_p[name].iterations_run
            assert res_s[name].reconstruction_error == res_p[name].reconstruction_error

    def test_step_cache_counters_match_serial(self):
        serial, _ = _compressor(num_workers=1)
        parallel, _ = _compressor(num_workers=4)
        serial.precluster()
        parallel.precluster()
        report_s = serial.fastpath_report().per_layer
        report_p = parallel.fastpath_report().per_layer
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

    def test_refine_all_matches_per_layer_refine(self):
        parallel, _ = _compressor(num_workers=4)
        reference, _ = _compressor(num_workers=1)
        states_p = parallel.refine_all()
        states_r = {
            name: wrapper.clusterer.refine(wrapper.inner.weight)
            for name, wrapper in reference.wrapped.items()
        }
        assert list(states_p) == list(states_r)
        for name in states_r:
            assert np.array_equal(states_p[name].centroids, states_r[name].centroids)

    def test_finalize_artifacts_bit_identical(self):
        serial, stack_s = _compressor(num_workers=1)
        parallel, stack_p = _compressor(num_workers=4)
        report_s = serial.finalize(stack_s)
        report_p = parallel.finalize(stack_p)
        assert list(report_s.palettized) == list(report_p.palettized)
        for name, pal_s in report_s.palettized.items():
            pal_p = report_p.palettized[name]
            assert np.array_equal(pal_s.lut, pal_p.lut)
            assert np.array_equal(pal_s.packed, pal_p.packed)
        assert report_s.total_bytes == report_p.total_bytes

    def test_parallel_is_repeatable(self):
        first, _ = _compressor(num_workers=4)
        second, _ = _compressor(num_workers=4)
        res_a = first.precluster()
        res_b = second.precluster()
        for name in res_a:
            assert np.array_equal(res_a[name].centroids, res_b[name].centroids)
            assert np.array_equal(res_a[name].assignments, res_b[name].assignments)


class TestChunkedDense:
    def _weights(self, n=4096, seed=0):
        values = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
        return Tensor.from_numpy(values * 0.05, dtype=bfloat16, requires_grad=True)

    def test_chunked_forward_and_grad_bit_identical(self):
        w_mono, w_chunk = self._weights(), self._weights()
        mono = DKMClusterer(DKMConfig(bits=3, iters=3)).cluster_dense(w_mono)
        chunk = DKMClusterer(DKMConfig(bits=3, iters=3)).cluster_dense(
            w_chunk, row_chunk=700
        )
        assert np.array_equal(mono.numpy(), chunk.numpy())
        (mono * mono).sum().backward()
        (chunk * chunk).sum().backward()
        assert np.array_equal(w_mono.grad.numpy(), w_chunk.grad.numpy())

    def test_row_chunk_from_config(self):
        w_mono, w_chunk = self._weights(), self._weights()
        mono = DKMClusterer(DKMConfig(bits=3, iters=3)).cluster_dense(w_mono)
        chunk = DKMClusterer(
            DKMConfig(bits=3, iters=3, dense_row_chunk=512)
        ).cluster_dense(w_chunk)
        assert np.array_equal(mono.numpy(), chunk.numpy())

    def test_chunk_larger_than_tensor_is_monolithic(self):
        w_a, w_b = self._weights(n=300), self._weights(n=300)
        a = DKMClusterer(DKMConfig(bits=2, iters=2)).cluster_dense(w_a)
        b = DKMClusterer(DKMConfig(bits=2, iters=2)).cluster_dense(
            w_b, row_chunk=10_000
        )
        assert np.array_equal(a.numpy(), b.numpy())

    def test_monolithic_over_limit_raises(self):
        w = self._weights(n=2048)
        clusterer = DKMClusterer(DKMConfig(bits=4, iters=2, dense_saved_bytes_limit=1024))
        with pytest.raises(MemoryError, match="dense_row_chunk"):
            clusterer.cluster_dense(w)
        # The refusal happens before any refinement work.
        assert clusterer.state is None
        # The chunked fallback handles the same layer.
        out = clusterer.cluster_dense(w, row_chunk=256)
        assert out.shape == (2048,)

    def test_chunked_over_limit_agrees_with_edkm_forward(self):
        """A layer the monolithic path refuses still clusters, chunked, to
        what the eDKM unique-space forward computes from the same state."""
        config = DKMConfig(bits=4, iters=2, dense_saved_bytes_limit=4096)
        clusterer = DKMClusterer(config)
        with pytest.raises(MemoryError):
            clusterer.cluster_dense(self._weights(n=8192))
        chunked = clusterer.cluster_dense(self._weights(n=8192), row_chunk=1000)
        edkm = edkm_cluster(self._weights(n=8192), DKMClusterer(config))
        np.testing.assert_allclose(
            chunked.numpy().astype(np.float32),
            edkm.numpy().astype(np.float32),
            atol=1e-2,
            rtol=1e-2,
        )

    def test_invalid_dense_config_rejected(self):
        with pytest.raises(ValueError):
            DKMConfig(dense_row_chunk=0)
        with pytest.raises(ValueError):
            DKMConfig(dense_saved_bytes_limit=0)

    def test_invalid_row_chunk_argument_rejected(self):
        w = self._weights(n=128)
        clusterer = DKMClusterer(DKMConfig(bits=2, iters=1))
        with pytest.raises(ValueError, match="row_chunk"):
            clusterer.cluster_dense(w, row_chunk=0)
        with pytest.raises(ValueError, match="row_chunk"):
            clusterer.cluster_dense(w, row_chunk=-4)
