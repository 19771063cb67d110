"""Fast-path engine equivalence tests (ISSUE 1).

Three families of guarantees:

- the O(N) histogram uniquify is **bit-identical** to the sort-based
  ``np.unique`` decomposition on every dtype/shape/degenerate input;
- the ``np.bincount`` segment reductions match ``np.add.at`` references to
  float tolerance, including >2^16 segments, chunked multi-dim scatters,
  and empty inputs;
- the per-layer :class:`~repro.core.fastpath.StepCache` performs exactly
  one uniquify per layer per training step, keyed on the weight storage's
  version counter.
"""

import numpy as np
import pytest

import repro.nn as nn
import repro.tensor as rt
from repro.core import DKMConfig, ModelCompressor
from repro.core.compressor import ClusteredLinear
from repro.core.dkm import DKMClusterer
from repro.core.edkm import edkm_cluster
from repro.core.fastpath import StepCache
from repro.core.uniquify import (
    HISTOGRAM_MIN_SIZE,
    attention_table,
    reset_uniquify_call_count,
    uniquify,
    uniquify_call_count,
)
from repro.optim import SGD
from repro.tensor.dtype import bfloat16, float16
from repro.tensor.ops.segment import scatter_add_rows, segment_sum
from repro.tensor.tensor import Tensor


def _bf16(values):
    return bfloat16.project(np.asarray(values, dtype=np.float32))


def _assert_bit_identical(a, b):
    assert np.array_equal(a.patterns, b.patterns)
    assert a.patterns.dtype == b.patterns.dtype
    assert np.array_equal(a.index_list, b.index_list)
    assert a.index_list.dtype == b.index_list.dtype
    assert np.array_equal(a.counts, b.counts)
    assert a.counts.dtype == b.counts.dtype
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert a.source_shape == b.source_shape


class TestHistogramUniquify:
    @pytest.mark.parametrize("dtype", [bfloat16, float16], ids=["bf16", "fp16"])
    @pytest.mark.parametrize("n", [0, 1, 7, HISTOGRAM_MIN_SIZE - 1, 5000, 200_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_sort(self, dtype, n, seed):
        values = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
        w = dtype.project(values * 0.05)
        sort = uniquify(w, dtype, method="sort")
        hist = uniquify(w, dtype, method="histogram")
        auto = uniquify(w, dtype, method="auto")
        _assert_bit_identical(sort, hist)
        _assert_bit_identical(sort, auto)

    def test_constant_tensor(self):
        w = _bf16(np.full(300, 0.125))
        hist = uniquify(w, bfloat16, method="histogram")
        _assert_bit_identical(uniquify(w, bfloat16, method="sort"), hist)
        assert hist.n_unique == 1
        assert hist.counts[0] == 300

    def test_special_values(self):
        # -0.0 and 0.0 are distinct bit patterns; inf/nan must round-trip.
        w = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, 1.5], dtype=np.float16
        )
        sort = uniquify(w, float16, method="sort")
        hist = uniquify(w, float16, method="histogram")
        _assert_bit_identical(sort, hist)
        assert hist.n_unique == 6  # the two 1.5s collapse, +-0.0 do not

    def test_multidim_shape_preserved(self):
        w = _bf16(np.random.default_rng(3).standard_normal((40, 60)))
        hist = uniquify(w, bfloat16, method="histogram")
        assert hist.source_shape == (40, 60)
        assert np.array_equal(hist.reconstruct_values().astype(np.float32), w)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown uniquify method"):
            uniquify(_bf16([1.0]), bfloat16, method="quantum")

    def test_call_counter_increments(self):
        reset_uniquify_call_count()
        uniquify(_bf16([1.0, 2.0]), bfloat16)
        uniquify(_bf16([1.0, 2.0]), bfloat16)
        assert uniquify_call_count() == 2


class TestSegmentSum:
    def _reference(self, vals, ids, n):
        out = np.zeros(n, dtype=np.float64)
        np.add.at(out, ids, vals)
        return out

    @pytest.mark.parametrize("n_segments", [1, 8, 1 << 16, (1 << 16) + 37])
    def test_matches_add_at(self, n_segments):
        rng = np.random.default_rng(n_segments)
        ids = rng.integers(0, n_segments, size=10_000, dtype=np.int64)
        vals = rng.standard_normal(10_000).astype(np.float32)
        got = segment_sum(vals, ids, n_segments)
        assert got.shape == (n_segments,)
        np.testing.assert_allclose(got, self._reference(vals, ids, n_segments))

    def test_beyond_uint16_guard(self):
        # Segment count past the 2^16 pattern-domain bound (int32 index
        # territory): the reduction must not assume uint16-addressable rows.
        n = (1 << 16) + 1000
        ids = np.arange(n, dtype=np.int64)
        got = segment_sum(np.ones(n, dtype=np.float32), ids, n)
        assert got.sum() == n
        assert got[-1] == 1.0

    def test_uint16_ids_accepted(self):
        ids = np.array([0, 3, 3, 1], dtype=np.uint16)
        got = segment_sum(np.array([1.0, 2.0, 3.0, 4.0]), ids, 4)
        np.testing.assert_allclose(got, [1.0, 4.0, 0.0, 5.0])

    def test_empty(self):
        got = segment_sum(np.array([]), np.array([], dtype=np.int64), 5)
        assert got.shape == (5,)
        assert not got.any()

    def test_out_of_range_id_raises(self):
        with pytest.raises(IndexError, match="out of range"):
            segment_sum(np.ones(3), np.array([0, 1, 5], dtype=np.int64), 5)

    def test_out_of_range_row_raises(self):
        with pytest.raises(IndexError, match="out of range"):
            scatter_add_rows(
                np.array([0, 7], dtype=np.int64),
                np.ones((2, 4), dtype=np.float32),
                7,
            )


class TestScatterAddRows:
    def _reference(self, idx, grad, num_rows):
        out = np.zeros((num_rows,) + grad.shape[1:], dtype=np.float64)
        np.add.at(out, idx, grad)
        return out

    @pytest.mark.parametrize("shape", [(50, 1), (50, 16), (1, 4), (1000, 3)])
    def test_matches_add_at(self, shape):
        rng = np.random.default_rng(shape[1])
        num_rows = 17
        idx = rng.integers(0, num_rows, size=shape[0], dtype=np.int64)
        grad = rng.standard_normal(shape).astype(np.float32)
        got = scatter_add_rows(idx, grad, num_rows)
        np.testing.assert_allclose(got, self._reference(idx, grad, num_rows))

    def test_chunked_equals_unchunked(self):
        rng = np.random.default_rng(9)
        idx = rng.integers(0, 32, size=500, dtype=np.int64)
        grad = rng.standard_normal((500, 24)).astype(np.float32)
        whole = scatter_add_rows(idx, grad, 32)
        chunked = scatter_add_rows(idx, grad, 32, chunk_elems=128)
        np.testing.assert_array_equal(whole, chunked)

    def test_empty_gather(self):
        got = scatter_add_rows(
            np.array([], dtype=np.int64), np.zeros((0, 8), dtype=np.float32), 6
        )
        assert got.shape == (6, 8)
        assert not got.any()

    def test_zero_width_rows(self):
        got = scatter_add_rows(
            np.array([0, 1], dtype=np.int64), np.zeros((2, 0), dtype=np.float32), 2
        )
        assert got.shape == (2, 0)

    def test_index_select_backward_empty_indices(self):
        # Forward permits a zero-length gather; backward must yield a zero
        # gradient, not crash in the reshape.
        weight = Tensor.from_numpy(
            np.ones((4, 3), dtype=np.float32), requires_grad=True
        )
        idx = Tensor.from_numpy(np.array([], dtype=np.int64))
        out = rt.ops.index_select(weight, idx)
        assert out.shape == (0, 3)
        out.sum().backward()
        assert not weight.grad.numpy().any()

    @pytest.mark.parametrize("num_rows", [4, 100], ids=["dense", "sparse"])
    def test_index_select_backward_duplicates(self, num_rows):
        # End-to-end through the autograd op: duplicate rows must sum grads
        # on both sides of the density dispatch (bincount vs add.at).
        weight = Tensor.from_numpy(
            np.arange(num_rows * 3, dtype=np.float32).reshape(num_rows, 3),
            requires_grad=True,
        )
        idx = Tensor.from_numpy(np.array([1, 1, 3, 0, 1], dtype=np.int64))
        out = rt.ops.index_select(weight, idx)
        (out * out).sum().backward()
        expected = np.zeros((num_rows, 3), dtype=np.float64)
        np.add.at(expected, idx.numpy(), 2.0 * weight.numpy()[idx.numpy()])
        np.testing.assert_allclose(weight.grad.numpy(), expected, rtol=1e-5)


class TestTakeAlongDimBackward:
    def _reference(self, idx, grad, shape, dim):
        # The fancy-key np.add.at formulation the bincount path replaced.
        out = np.zeros(shape, dtype=np.float64)
        grids = np.ogrid[tuple(slice(s) for s in idx.shape)]
        key = list(np.broadcast_arrays(*grids))
        key[dim] = idx
        np.add.at(out, tuple(key), grad)
        return out

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_matches_add_at(self, dim):
        rng = np.random.default_rng(dim)
        shape = (3, 5, 4)
        sel_shape = list(shape)
        sel_shape[dim] = 2
        a = Tensor.from_numpy(
            rng.standard_normal(shape).astype(np.float32), requires_grad=True
        )
        idx_np = rng.integers(0, shape[dim], size=sel_shape, dtype=np.int64)
        idx = Tensor.from_numpy(idx_np)
        out = rt.ops.take_along_dim(a, idx, dim=dim)
        (out * out).sum().backward()
        grad_out = 2.0 * np.take_along_axis(a.numpy(), idx_np, axis=dim)
        expected = self._reference(idx_np, grad_out, shape, dim)
        np.testing.assert_allclose(a.grad.numpy(), expected, rtol=1e-5, atol=1e-6)

    def test_negative_indices(self):
        a = Tensor.from_numpy(
            np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True
        )
        idx_np = np.array([[-1], [0], [-2]], dtype=np.int64)
        out = rt.ops.take_along_dim(a, Tensor.from_numpy(idx_np), dim=1)
        out.sum().backward()
        expected = np.zeros((3, 4), dtype=np.float32)
        expected[0, 3] = 1.0
        expected[1, 0] = 1.0
        expected[2, 2] = 1.0
        np.testing.assert_array_equal(a.grad.numpy(), expected)

    def test_duplicate_indices_accumulate(self):
        a = Tensor.from_numpy(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        idx_np = np.array([[1, 1, 1], [0, 0, 2]], dtype=np.int64)
        out = rt.ops.take_along_dim(a, Tensor.from_numpy(idx_np), dim=1)
        out.sum().backward()
        expected = np.array([[0, 3, 0], [2, 0, 1]], dtype=np.float32)
        np.testing.assert_array_equal(a.grad.numpy(), expected)


class TestFactorizedBackward:
    def test_matches_add_at_segment_reference(self):
        # The unique-space backward's segment sums vs a hand-rolled np.add.at
        # reference on a duplicate-heavy tensor.
        from repro.core.edkm import EDKMClusterAssign
        from repro.core.uniquify import attention_table

        rng = np.random.default_rng(0)
        w = _bf16(rng.choice([-0.5, -0.1, 0.0, 0.2, 0.4], size=400))
        unique = uniquify(w, bfloat16)
        c = np.linspace(-0.6, 0.6, 8).astype(np.float32)
        tau = 0.01
        table = attention_table(unique.values, c, tau)
        g = rng.standard_normal(400).astype(np.float32)
        index_list = unique.index_list.astype(np.int64)

        w_t = Tensor.from_numpy(w, dtype="bfloat16", requires_grad=True)
        c_t = Tensor.from_numpy(c, requires_grad=True)
        EDKMClusterAssign.apply(w_t, c_t, tau).backward(g)
        grad_w, grad_c = w_t.grad.numpy(), c_t.grad.numpy()

        seg_ref = np.zeros(unique.n_unique, dtype=np.float32)
        np.add.at(seg_ref, index_list, g)
        grad_attention_u = seg_ref[:, None] * c[None, :]
        inner_u = (table * grad_attention_u).sum(axis=1, keepdims=True)
        grad_logits_u = table * (grad_attention_u - inner_u)
        diff_u = unique.values[:, None] - c[None, :]
        grad_c_ref = table.T @ seg_ref + (grad_logits_u * (2.0 * diff_u / tau)).sum(
            axis=0
        )
        np.testing.assert_allclose(grad_c, grad_c_ref, rtol=1e-4, atol=1e-6)
        assert grad_w.shape == (400,)


class TestStorageVersionCounter:
    def test_inplace_writes_bump_version(self):
        t = Tensor.from_numpy(np.zeros(4, dtype=np.float32))
        v0 = t.storage.version
        t.copy_(np.ones(4, dtype=np.float32))
        t.fill_(2.0)
        t._unsafe_add_(np.ones(4, dtype=np.float32))
        assert t.storage.version == v0 + 3

    def test_views_share_version(self):
        t = Tensor.from_numpy(np.zeros((2, 2), dtype=np.float32))
        view = t.reshape(-1)
        view.fill_(1.0)
        assert t.storage.version == view.storage.version


class TestStepCache:
    def _weights(self, n=4096, seed=0):
        values = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
        return Tensor.from_numpy(values * 0.05, dtype=bfloat16)

    def test_second_uniquify_is_cached(self):
        cache = StepCache()
        w = self._weights()
        reset_uniquify_call_count()
        first = cache.uniquify(w, bfloat16)
        second = cache.uniquify(w, bfloat16)
        assert first is second
        assert uniquify_call_count() == 1
        assert cache.stats.uniquify_hits == 1
        assert cache.stats.uniquify_misses == 1

    def test_write_invalidates(self):
        cache = StepCache()
        w = self._weights()
        first = cache.uniquify(w, bfloat16)
        w.copy_(w._compute() * 0.5)  # optimizer-style in-place write
        second = cache.uniquify(w, bfloat16)
        assert first is not second
        assert cache.stats.uniquify_misses == 2

    def test_different_storage_misses(self):
        cache = StepCache()
        cache.uniquify(self._weights(seed=1), bfloat16)
        cache.uniquify(self._weights(seed=2), bfloat16)
        assert cache.stats.uniquify_misses == 2

    def test_table_roundtrip_and_invalidation(self):
        cache = StepCache()
        w = self._weights()
        unique = cache.uniquify(w, bfloat16)
        c = np.linspace(-1, 1, 8).astype(np.float32)
        table = np.full((unique.n_unique, 8), 0.125, dtype=np.float32)
        cache.store_table(c, 0.01, table)
        assert cache.lookup_table(c, 0.01) is table
        assert cache.lookup_table(c, 0.02) is None  # temperature mismatch
        assert cache.lookup_table(c + 1.0, 0.01) is None  # centroid mismatch
        w.copy_(w._compute() * 2.0)
        cache.uniquify(w, bfloat16)  # miss drops the stale table
        assert cache.lookup_table(c, 0.01) is None

    def test_column_vector_centroids_hit(self):
        """Regression: ``store_table`` used to keep centroids in their
        original shape while ``lookup_table`` compared against a flattened
        key, so ``(k, 1)`` column-vector centroids never hit and the
        refine->forward table carry-over was silently dead."""
        cache = StepCache()
        w = self._weights()
        unique = cache.uniquify(w, bfloat16)
        c_flat = np.linspace(-1, 1, 8).astype(np.float32)
        c_column = c_flat.reshape(-1, 1)
        table = np.full((unique.n_unique, 8), 0.125, dtype=np.float32)
        cache.store_table(c_column, 0.01, table)
        assert cache.lookup_table(c_column, 0.01) is table
        assert cache.lookup_table(c_flat, 0.01) is table  # shape-agnostic
        assert cache.stats.table_hits == 2

    def test_refine_and_forward_share_one_uniquify(self):
        w = self._weights()
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=3))
        reset_uniquify_call_count()
        edkm_cluster(w, clusterer)
        assert uniquify_call_count() == 1
        assert clusterer.fastpath.stats.table_hits == 1


class TestOneUniquifyPerLayerPerStep:
    def _train_steps(self, model, params, steps, in_f, n_layers):
        opt = SGD(params, lr=0.05)
        per_step = []
        for step in range(steps):
            x = rt.Tensor.from_numpy(
                np.random.default_rng(step)
                .standard_normal((4, in_f))
                .astype(np.float32),
                device="gpu",
            )
            before = uniquify_call_count()
            out = model(x)
            (out * out).sum().backward()
            opt.step()
            per_step.append(uniquify_call_count() - before)
        return per_step

    def test_single_layer(self):
        layer = nn.Linear(16, 8, rng=np.random.default_rng(0))
        layer.to("gpu")
        wrapped = ClusteredLinear(layer, DKMConfig(bits=2, iters=3))
        wrapped.train()
        per_step = self._train_steps(
            wrapped, list(wrapped.parameters()), steps=4, in_f=16, n_layers=1
        )
        assert per_step == [1, 1, 1, 1]

    def test_multi_layer_model(self):
        model = nn.SwiGLUMLP(12, 24, rng=np.random.default_rng(1))
        model.to("gpu")
        compressor = ModelCompressor(DKMConfig(bits=2, iters=2))
        compressor.compress(model)
        model.train()
        n_layers = len(compressor.wrapped)
        assert n_layers >= 2
        per_step = self._train_steps(
            model, list(model.parameters()), steps=3, in_f=12, n_layers=n_layers
        )
        assert per_step == [n_layers] * 3

        report = compressor.fastpath_report()
        assert set(report.per_layer) == set(compressor.wrapped)
        total = report.total
        # Every step: refine misses once (fresh weight version), the eDKM
        # forward hits; the carried table is reused by every forward.
        assert total.uniquify_misses == 3 * n_layers
        assert total.uniquify_hits == 3 * n_layers
        assert total.table_hits == 3 * n_layers
        assert "TOTAL" in report.summary()

        # The report is a snapshot: more forwards must not mutate it.
        model(
            rt.Tensor.from_numpy(
                np.random.default_rng(99).standard_normal((4, 12)).astype(np.float32),
                device="gpu",
            )
        )
        assert report.total.uniquify_hits == total.uniquify_hits

        # release_step_caches drops the retained decompositions; the next
        # forward re-uniquifies from scratch.
        compressor.release_step_caches()
        reset_uniquify_call_count()
        model(
            rt.Tensor.from_numpy(
                np.random.default_rng(100).standard_normal((4, 12)).astype(np.float32),
                device="gpu",
            )
        )
        assert uniquify_call_count() == n_layers


class TestOneKindOfEntry:
    """The cache holds one kind of entry: a resident decomposition."""

    def _weights(self):
        values = np.random.default_rng(0).standard_normal(256).astype(np.float32)
        return Tensor.from_numpy(values * 0.1, dtype=bfloat16)

    def test_no_phantom_api(self):
        assert not hasattr(StepCache, "mark_computed")

    def test_only_the_resident_key_hits(self):
        """A ``uniquify`` hits only the resident entry's weight version and
        dtype: another dtype, a weight write or an ``invalidate`` misses."""
        weights = self._weights()
        cache = StepCache()

        def hits(dtype):
            before = cache.stats.uniquify_hits
            cache.uniquify(weights, dtype)
            return cache.stats.uniquify_hits - before

        assert hits(bfloat16) == 0
        assert hits(bfloat16) == 1
        assert hits(float16) == 0  # another dtype's key
        assert hits(bfloat16) == 0
        weights.copy_(weights.numpy() * 2.0)
        assert hits(bfloat16) == 0
        cache.invalidate()
        assert hits(bfloat16) == 0

    def test_store_table_needs_a_resident_entry(self):
        weights = self._weights()
        unique = StepCache().uniquify(weights, bfloat16)
        centroids = np.linspace(-0.2, 0.2, 8, dtype=np.float32)
        table = attention_table(unique.values, centroids, 0.01)
        cache = StepCache()
        cache.store_table(centroids, 0.01, table)  # no entry at all: ignored
        assert cache.lookup_table(centroids, 0.01) is None
        cache.uniquify(weights, bfloat16)
        cache.store_table(centroids, 0.01, table)
        assert cache.lookup_table(centroids, 0.01) is table

    def test_store_table_of_another_decomposition_is_ignored(self):
        weights = self._weights()
        cache = StepCache()
        unique = cache.uniquify(weights, bfloat16)
        centroids = np.linspace(-0.2, 0.2, 8, dtype=np.float32)
        short = np.full((unique.n_unique - 1, 8), 0.125, dtype=np.float32)
        cache.store_table(centroids, 0.01, short)
        assert cache.lookup_table(centroids, 0.01) is None
