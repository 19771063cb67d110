"""Tests for palettization: bit packing, LUT artifacts, k-means palettes."""

import numpy as np
import pytest

from repro.core.palettize import (
    PalettizedTensor,
    kmeans_palettize,
    pack_indices,
    unpack_indices,
)


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

    def test_deterministic(self):
        weights = np.random.default_rng(2).standard_normal(1000).astype(np.float32)
        a = kmeans_palettize(weights, bits=3)
        b = kmeans_palettize(weights, bits=3)
        assert np.array_equal(a.lut, b.lut)
        assert np.array_equal(a.packed, b.packed)
