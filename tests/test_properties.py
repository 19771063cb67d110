"""Property-based tests (hypothesis) for core invariants.

These target the load-bearing exactness claims of the reproduction:
uniquification is a *lossless* factorization, bit packing round-trips,
marshaling never changes gradients, and the tensor engine agrees with numpy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.tensor as rt
from repro.core import EDKMConfig, SavedTensorPipeline
from repro.core.palettize import pack_indices, unpack_indices
from repro.core.uniquify import (
    attention_table,
    dense_attention_map,
    reconstruct_attention_map,
    uniquify,
)
from repro.tensor.autograd import unbroadcast
from repro.tensor.dtype import bfloat16, bit_pattern16, decode_pattern16, float16

floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False, width=32
)
small_arrays = hnp.arrays(
    dtype=np.float32, shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
    elements=floats,
)


class TestBitPatternProperties:
    @given(hnp.arrays(np.float32, st.integers(1, 200), elements=floats))
    @settings(max_examples=50, deadline=None)
    def test_bf16_decode_encode_identity(self, values):
        projected = bfloat16.project(values)
        patterns = bit_pattern16(projected, bfloat16)
        assert np.array_equal(decode_pattern16(patterns, bfloat16), projected)

    @given(hnp.arrays(np.float32, st.integers(1, 200), elements=floats))
    @settings(max_examples=50, deadline=None)
    def test_fp16_pattern_equality_iff_value_equality(self, values):
        projected = np.asarray(values, dtype=np.float16)
        patterns = bit_pattern16(projected, float16)
        decoded = decode_pattern16(patterns, float16)
        # Equal patterns <=> equal (bit-level) values.
        assert np.array_equal(
            decoded.astype(np.float16).view(np.uint16), projected.view(np.uint16)
        )


class TestUniquifyProperties:
    @given(
        hnp.arrays(np.float32, st.integers(2, 400), elements=floats),
        st.integers(2, 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_factorization_is_lossless(self, values, k):
        weights = bfloat16.project(values * 0.01)
        centroids = np.linspace(weights.min() - 0.1, weights.max() + 0.1, k).astype(
            np.float32
        )
        unique = uniquify(weights, bfloat16)
        table = attention_table(unique.values, centroids, 1e-3)
        dense = dense_attention_map(weights, centroids, 1e-3)
        assert np.array_equal(
            reconstruct_attention_map(table, unique.index_list), dense
        )

    @given(hnp.arrays(np.float32, st.integers(1, 500), elements=floats))
    @settings(max_examples=30, deadline=None)
    def test_reconstruct_values_identity(self, values):
        weights = bfloat16.project(values)
        unique = uniquify(weights, bfloat16)
        rebuilt = unique.values[unique.index_list].reshape(unique.source_shape)
        assert np.array_equal(rebuilt, weights)
        assert unique.counts.sum() == weights.size

    @given(
        hnp.arrays(np.float32, st.integers(2, 300), elements=floats),
        st.integers(2, 8),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_attention_rows_are_distributions(self, values, k, temperature):
        centroids = np.linspace(-1, 1, k).astype(np.float32)
        table = attention_table(values, centroids, temperature)
        assert np.all(table >= 0)
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-5)


class TestPackingProperties:
    @given(
        st.integers(1, 8),
        st.integers(0, 2000),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, bits, count, seed):
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, 2**bits, size=count).astype(np.uint8)
        packed = pack_indices(indices, bits)
        assert packed.size == int(np.ceil(count * bits / 8))
        assert np.array_equal(unpack_indices(packed, bits, count), indices)


class TestEngineVsNumpy:
    @given(small_arrays, small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_add_matches_numpy_when_broadcastable(self, a, b):
        try:
            expected = a + b
        except ValueError:
            return  # not broadcastable; engine raising too is acceptable
        try:
            out = (rt.tensor(a) + rt.tensor(b)).numpy()
        except ValueError:
            return
        assert np.allclose(out, expected, rtol=1e-5, atol=1e-5, equal_nan=True)

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_view_roundtrip_preserves_values(self, a):
        t = rt.tensor(a)
        assert np.array_equal(t.view(-1).view(*a.shape).numpy(), a)

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_sum_matches_numpy(self, a):
        assert np.allclose(
            rt.tensor(a).sum().item(), a.sum(), rtol=1e-4, atol=1e-4
        )

    @given(
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                   elements=floats),
    )
    @settings(max_examples=40, deadline=None)
    def test_transpose_involution(self, a):
        t = rt.tensor(a)
        assert np.array_equal(t.T.T.numpy(), a)

    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                      elements=st.floats(-5, 5, width=32)))
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_normalized(self, a):
        out = rt.ops.softmax(rt.tensor(a), dim=-1).numpy()
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-4)


class TestUnbroadcastProperties:
    @given(
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
        st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, shape, extra_dims):
        grad_shape = tuple([2] * extra_dims) + shape
        grad = np.ones(grad_shape, dtype=np.float32)
        out = unbroadcast(grad, shape)
        assert out.shape == shape
        assert np.all(out == 2**extra_dims)


class TestPipelineInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_offload_pipeline_never_changes_gradients(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((6, 6)).astype(np.float32)

        def grads(pipeline):
            x = rt.Tensor.from_numpy(values, device="gpu", requires_grad=True)
            scope = pipeline.step() if pipeline else _null()
            with scope:
                (rt.ops.softmax(x @ x, dim=1) ** 2).sum().backward()
            return x.grad.numpy()

        plain = grads(None)
        piped = grads(
            SavedTensorPipeline(
                EDKMConfig(marshal=True, uniquify=False, shard=False, group=None)
            )
        )
        assert np.allclose(plain, piped, rtol=1e-6)


def _null():
    import contextlib

    return contextlib.nullcontext()
