"""Tests for palettization: bit packing, LUT artifacts, k-means palettes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor as rt
from repro.core.palettize import (
    PalettizedTensor,
    kmeans_palettize,
    pack_indices,
    unpack_indices,
)

from tests.oracles import pack_indices_unpackbits


class TestBitPacking:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 8])
    def test_roundtrip(self, bits):
        rng = np.random.default_rng(bits)
        indices = rng.integers(0, 2**bits, size=1000).astype(np.uint8)
        packed = pack_indices(indices, bits)
        assert np.array_equal(unpack_indices(packed, bits, 1000), indices)

    def test_packed_size(self):
        indices = np.zeros(1000, dtype=np.uint8)
        assert pack_indices(indices, 3).size == int(np.ceil(1000 * 3 / 8))
        assert pack_indices(indices, 4).size == 500

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            pack_indices(np.array([8]), bits=3)

    @pytest.mark.parametrize(
        "indices, bits", [([256, 1], 3), ([1, 256], 8), ([-1], 8), ([0, -255], 2)]
    )
    def test_out_of_range_rejected_before_the_uint8_cast(self, indices, bits):
        # A uint8 cast first would wrap 256 to 0 and -1 to 255, both in range.
        with pytest.raises(ValueError, match="fit"):
            pack_indices(np.array(indices), bits)

    def test_wide_integer_indices_pack_like_uint8(self):
        indices = np.random.default_rng(9).integers(0, 8, size=999)
        want = pack_indices(indices.astype(np.uint8), 3)
        assert pack_indices(indices, 3).tobytes() == want.tobytes()

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            pack_indices(np.array([0]), bits=0)
        with pytest.raises(ValueError):
            pack_indices(np.array([0]), bits=9)

    def test_empty(self):
        packed = pack_indices(np.array([], dtype=np.uint8), 3)
        assert np.array_equal(unpack_indices(packed, 3, 0), np.array([], dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_float_indices_rejected(self, dtype):
        # A cast would truncate: [0.5, 1.9, 7.99] would pack as [0, 1, 7].
        with pytest.raises(ValueError, match="integers or bools"):
            pack_indices(np.array([0.5, 1.9, 7.99], dtype=dtype), 3)

    @pytest.mark.parametrize("bits", [0, 9, -1])
    def test_unpack_bad_bits_rejected(self, bits):
        with pytest.raises(ValueError, match=rf"bits must be in \[1, 8\], got {bits}"):
            unpack_indices(np.zeros(4, dtype=np.uint8), bits, 2)

    @pytest.mark.parametrize(
        "n_bytes, bits, count, capacity", [(3, 3, 9, 8), (0, 1, 1, 0), (4, 8, 5, 4), (3, 3, -1, 8)]
    )
    def test_unpack_count_outside_stream_rejected(self, n_bytes, bits, count, capacity):
        with pytest.raises(ValueError, match=rf"count {count} is outside \[0, {capacity}\]"):
            unpack_indices(np.zeros(n_bytes, dtype=np.uint8), bits, count)

    def test_unpack_whole_stream_accepted(self):
        # 3 bytes hold 8 three-bit indices; the last bit is padding.
        indices = np.arange(8, dtype=np.uint8)
        assert np.array_equal(unpack_indices(pack_indices(indices, 3), 3, 8), indices)


def _pack_case_indices(bits, length, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype is bool:
        return rng.integers(0, 2, length).astype(bool)
    high = min(1 << bits, int(np.iinfo(dtype).max) + 1)
    return rng.integers(0, high, length).astype(dtype)


class TestPackEqualsOracle:
    """The word-wide packer is byte-equal to the bit-matrix packer it replaced."""

    @given(
        st.integers(1, 8),
        st.integers(0, 70),
        st.sampled_from([np.uint8, np.uint16, np.int8, np.int32, np.int64, np.uint64, bool]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_oracle(self, bits, length, dtype, seed):
        indices = _pack_case_indices(bits, length, dtype, seed)
        packed = pack_indices(indices, bits)
        want = pack_indices_unpackbits(indices, bits)
        assert packed.dtype == np.uint8
        assert packed.tobytes() == want.tobytes()
        assert np.array_equal(unpack_indices(packed, bits, length), indices.astype(np.uint8))

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_every_length_mod_8_at_the_top_index(self, bits):
        for length in range(17):
            indices = np.full(length, (1 << bits) - 1, dtype=np.int64)
            want = pack_indices_unpackbits(indices, bits)
            assert pack_indices(indices, bits).tobytes() == want.tobytes()


class TestPalettizedTensor:
    def test_from_weights_nearest_assignment(self):
        lut = np.array([-1.0, 0.0, 1.0, 2.0], dtype=np.float32)
        weights = np.array([[0.9, -0.8], [0.1, 2.4]], dtype=np.float32)
        p = PalettizedTensor.from_weights(weights, lut, bits=2)
        assert np.array_equal(
            p.dequantize(), [[1.0, -1.0], [0.0, 2.0]]
        )

    def test_shape_preserved(self):
        weights = np.random.default_rng(0).standard_normal((6, 7)).astype(np.float32)
        lut = np.linspace(-2, 2, 8).astype(np.float32)
        p = PalettizedTensor.from_weights(weights, lut, bits=3)
        assert p.shape == (6, 7)
        assert p.dequantize().shape == (6, 7)

    def test_nbytes_arithmetic(self):
        weights = np.zeros(1024, dtype=np.float32)
        lut = np.linspace(-1, 1, 8).astype(np.float32)
        p = PalettizedTensor.from_weights(weights, lut, bits=3)
        assert p.nbytes == int(np.ceil(1024 * 3 / 8)) + 8 * 2

    def test_bits_per_weight_close_to_nominal(self):
        weights = np.zeros(100_000, dtype=np.float32)
        lut = np.linspace(-1, 1, 8).astype(np.float32)
        p = PalettizedTensor.from_weights(weights, lut, bits=3)
        assert p.bits_per_weight == pytest.approx(3.0, abs=0.01)

    def test_lut_too_big_rejected(self):
        with pytest.raises(ValueError):
            PalettizedTensor.from_weights(
                np.zeros(4, dtype=np.float32), np.linspace(0, 1, 16), bits=3
            )

    def test_dequantize_of_truncated_stream_rejected(self):
        weights = np.zeros((6, 7), dtype=np.float32)
        p = PalettizedTensor.from_weights(weights, np.linspace(-1, 1, 8), bits=3)
        p.packed = p.packed[:-2]  # 14 bytes hold 37 of the 42 indices
        with pytest.raises(ValueError, match=r"count 42 is outside \[0, 37\]"):
            p.dequantize()

    def test_dequantize_error_bounded_by_lut_resolution(self):
        rng = np.random.default_rng(1)
        weights = rng.uniform(-1, 1, 5000).astype(np.float32)
        lut = np.linspace(-1, 1, 16).astype(np.float32)
        p = PalettizedTensor.from_weights(weights, lut, bits=4)
        max_err = np.abs(p.dequantize().reshape(-1) - weights).max()
        assert max_err <= (lut[1] - lut[0]) / 2 + 1e-6


class TestKMeansPalettize:
    def test_beats_uniform_grid_on_gaussian(self):
        rng = np.random.default_rng(0)
        weights = (rng.standard_normal(20_000) * 0.1).astype(np.float32)
        km = kmeans_palettize(weights, bits=3)
        uniform_lut = np.linspace(weights.min(), weights.max(), 8).astype(np.float32)
        uniform = PalettizedTensor.from_weights(weights, uniform_lut, bits=3)
        km_err = np.mean((km.dequantize().reshape(-1) - weights) ** 2)
        uniform_err = np.mean((uniform.dequantize().reshape(-1) - weights) ** 2)
        assert km_err < uniform_err

    def test_8bit_embedding_compression(self):
        rng = np.random.default_rng(1)
        table = (rng.standard_normal((1024, 32)) * 0.02).astype(np.float32)
        p = kmeans_palettize(table, bits=8)
        assert p.bits_per_weight < 8.2
        rel_err = np.mean((p.dequantize() - table) ** 2) / table.var()
        assert rel_err < 0.01

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises(self, bad):
        # One NaN used to make all 256 LUT entries NaN, and an inf shipped
        # an inf entry, silently; refine raises on the same input.
        table = np.random.default_rng(3).standard_normal((64, 32)).astype(np.float32)
        table[5, 7] = bad
        with pytest.raises(FloatingPointError, match="1 of 2048 values"):
            kmeans_palettize(table, bits=8)

    @pytest.mark.parametrize("bits", [3, 8])
    def test_lut_is_on_the_bf16_grid_by_default(self, bits):
        # nbytes counts 2 bytes a LUT entry: every entry is a 16-bit value.
        weights = (np.random.default_rng(4).standard_normal(5000) * 0.02).astype(np.float32)
        lut = kmeans_palettize(weights, bits=bits).lut
        assert lut.dtype == np.float32
        assert lut.tobytes() == rt.bfloat16.project(lut).astype(np.float32).tobytes()

    def test_deterministic(self):
        weights = np.random.default_rng(2).standard_normal(1000).astype(np.float32)
        a = kmeans_palettize(weights, bits=3)
        b = kmeans_palettize(weights, bits=3)
        assert np.array_equal(a.lut, b.lut)
        assert np.array_equal(a.packed, b.packed)
