"""Tests for logical dtypes, bf16 simulation and 16-bit pattern keying."""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import dtype as dt

from tests.oracles import pattern16_inputs


class TestDTypeBasics:
    def test_float32_identity_projection(self):
        values = np.array([1.5, -2.25, 3.125], dtype=np.float32)
        assert np.array_equal(dt.float32.project(values), values)

    def test_itemsize_is_logical_not_physical(self):
        # bf16 is physically float32 but logically 2 bytes.
        assert dt.bfloat16.itemsize == 2
        assert dt.bfloat16.np_storage == np.float32

    def test_float16_physical_storage(self):
        assert dt.float16.np_storage == np.float16
        assert dt.float16.itemsize == 2

    def test_get_dtype_by_name(self):
        assert dt.get_dtype("float32") is dt.float32
        assert dt.get_dtype("bfloat16") is dt.bfloat16

    def test_get_dtype_aliases(self):
        assert dt.get_dtype("bf16") is dt.bfloat16
        assert dt.get_dtype("fp16") is dt.float16
        assert dt.get_dtype("half") is dt.float16

    def test_get_dtype_passthrough(self):
        assert dt.get_dtype(dt.int64) is dt.int64

    def test_get_dtype_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            dt.get_dtype("float8")

    def test_from_numpy_dtype(self):
        assert dt.from_numpy_dtype(np.dtype(np.float32)) is dt.float32
        assert dt.from_numpy_dtype(np.dtype(np.int64)) is dt.int64
        assert dt.from_numpy_dtype(np.dtype(np.bool_)) is dt.bool_

    def test_repr(self):
        assert repr(dt.bfloat16) == "repro.bfloat16"


class TestBF16Simulation:
    def test_projection_is_idempotent(self):
        values = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
        once = dt.bfloat16.project(values)
        twice = dt.bfloat16.project(once)
        assert np.array_equal(once, twice)

    def test_projection_clears_low_mantissa_bits(self):
        projected = dt.bfloat16.project(np.array([1.0000001], dtype=np.float32))
        bits = projected.view(np.uint32)
        assert (bits & 0xFFFF).item() == 0

    def test_projection_error_bounded(self):
        values = np.random.default_rng(1).standard_normal(4096).astype(np.float32)
        projected = dt.bfloat16.project(values)
        # bf16 has an 8-bit mantissa: relative error < 2^-8.
        rel = np.abs(projected - values) / np.maximum(np.abs(values), 1e-20)
        assert rel.max() < 2.0**-8

    def test_round_to_nearest_even(self):
        # 1 + 2^-9 is exactly halfway between two bf16 values; RNE keeps 1.0.
        halfway = np.float32(1.0 + 2.0**-9)
        assert dt.bfloat16.project(np.array([halfway]))[0] == np.float32(1.0)

    def test_special_values_preserved(self):
        values = np.array([0.0, -0.0, np.inf, -np.inf], dtype=np.float32)
        projected = dt.bfloat16.project(values)
        assert projected[0] == 0.0 and projected[1] == 0.0
        assert np.isposinf(projected[2]) and np.isneginf(projected[3])


class TestBitPatterns:
    def test_bf16_pattern_roundtrip(self):
        values = np.random.default_rng(2).standard_normal(512).astype(np.float32)
        projected = dt.bfloat16.project(values)
        patterns = dt.bit_pattern16(projected, dt.bfloat16)
        decoded = dt.decode_pattern16(patterns, dt.bfloat16)
        assert np.array_equal(decoded, projected)

    def test_fp16_pattern_roundtrip(self):
        values = np.random.default_rng(3).standard_normal(512).astype(np.float16)
        patterns = dt.bit_pattern16(values, dt.float16)
        decoded = dt.decode_pattern16(patterns, dt.float16)
        assert np.array_equal(decoded.astype(np.float16), values)

    def test_pattern_count_bounded_by_2_16(self):
        values = np.random.default_rng(4).standard_normal(1_000_00).astype(np.float32)
        patterns = dt.bit_pattern16(dt.bfloat16.project(values), dt.bfloat16)
        assert len(np.unique(patterns)) <= 2**16

    def test_equal_values_equal_patterns(self):
        values = dt.bfloat16.project(np.array([0.1, 0.1, 0.2], dtype=np.float32))
        patterns = dt.bit_pattern16(values, dt.bfloat16)
        assert patterns[0] == patterns[1]
        assert patterns[0] != patterns[2]

    def test_bf16_rounding_equals_the_unfolded_formulation(self):
        # Every high half x the low halves around the rounding boundary:
        # ties to even both ways, NaN/inf carries, and 0xFFFF_FFFF + bias
        # wrapping uint32.  The oracle is the pass-per-step version
        # ``project`` and ``bit_pattern16`` used before they shared one.
        high = np.arange(1 << 16, dtype=np.uint32) << 16
        low = np.array([0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF], dtype=np.uint32)
        bits = (high[:, None] | low[None, :]).reshape(-1)
        values = bits.view(np.float32)
        before = values.tobytes()
        bias = ((bits >> 16) & 1) + np.uint32(0x7FFF)
        want = (bits + bias) & np.uint32(0xFFFF0000)
        assert dt.bfloat16.project(values).tobytes() == want.tobytes()
        got = dt.bit_pattern16(values, dt.bfloat16)
        assert got.dtype == np.uint16
        assert got.tobytes() == (want >> 16).astype(np.uint16).tobytes()
        strided = values.reshape(-1, 6).T[::2]
        assert np.array_equal(
            dt.bit_pattern16(strided, dt.bfloat16),
            (want >> 16).astype(np.uint16).reshape(-1, 6).T[::2],
        )
        assert values.tobytes() == before  # the in-place passes never reach the input

    def test_on_grid_read_is_a_strided_view_of_the_buffer(self):
        values = dt.bfloat16.project(
            np.random.default_rng(5).standard_normal((64, 48)).astype(np.float32)
        )
        view = dt._bf16_grid_patterns(values)
        assert view.dtype == np.uint16 and view.shape == values.shape
        assert np.shares_memory(view, values) and not view.flags.c_contiguous
        assert view.tobytes() == dt.bit_pattern16(values, dt.bfloat16).tobytes()

    @given(pattern16_inputs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_rounding_formulation(self, case, little_endian):
        # An on-grid bf16 buffer on a little-endian host is read off its high
        # halves; off-grid input, float16 and a big-endian host take the
        # rounding passes of bit_pattern16.
        array, dtype, off_grid = case
        before = array.tobytes()
        want = dt.bit_pattern16(array, dtype)
        with mock.patch.object(dt, "_LITTLE_ENDIAN", little_endian):
            got = dt._pattern16_view(array, dtype)
            if dtype is dt.bfloat16:
                on_grid = dt._bf16_grid_patterns(array)
                assert (on_grid is not None) == (little_endian and not off_grid)
        assert got.dtype == np.uint16 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert array.tobytes() == before

    def test_pattern_requires_16bit_dtype(self):
        with pytest.raises(ValueError, match="16-bit"):
            dt.bit_pattern16(np.zeros(4, dtype=np.float32), dt.float32)
        with pytest.raises(ValueError, match="16-bit"):
            dt.decode_pattern16(np.zeros(4, dtype=np.uint16), dt.float32)


class TestPromotion:
    def test_same_dtype(self):
        assert dt.promote(dt.float32, dt.float32) is dt.float32

    def test_float_beats_int(self):
        assert dt.promote(dt.float16, dt.int64) is dt.float16
        assert dt.promote(dt.int32, dt.float32) is dt.float32

    def test_wider_float_wins(self):
        assert dt.promote(dt.float16, dt.float32) is dt.float32
        assert dt.promote(dt.float64, dt.float32) is dt.float64

    def test_bf16_fp16_promote_to_float32(self):
        assert dt.promote(dt.bfloat16, dt.float16) is dt.float32
        assert dt.promote(dt.float16, dt.bfloat16) is dt.float32

    def test_int_widths(self):
        assert dt.promote(dt.int32, dt.int64) is dt.int64
        assert dt.promote(dt.uint8, dt.uint16) is dt.uint16

    # Row ``a``, column ``b``: the name of ``promote(a, b)``.
    PAIRWISE = """
                 float64  float32  float16  bfloat16 int64    int32    uint16   uint8    bool
        float64  float64  float64  float64  float64  float64  float64  float64  float64  float64
        float32  float64  float32  float32  float32  float32  float32  float32  float32  float32
        float16  float64  float32  float16  float32  float16  float16  float16  float16  float16
        bfloat16 float64  float32  float32  bfloat16 bfloat16 bfloat16 bfloat16 bfloat16 bfloat16
        int64    float64  float32  float16  bfloat16 int64    int64    int64    int64    int64
        int32    float64  float32  float16  bfloat16 int64    int32    int32    int32    int32
        uint16   float64  float32  float16  bfloat16 int64    int32    uint16   uint16   uint16
        uint8    float64  float32  float16  bfloat16 int64    int32    uint16   uint8    uint8
        bool     float64  float32  float16  bfloat16 int64    int32    uint16   bool     bool
    """

    @pytest.mark.parametrize("repickle", [False, True], ids=["interned", "repickled"])
    def test_pairwise_table(self, repickle):
        """Every pair of interned dtypes, including dtypes that went through
        pickle: ``promote`` compares by identity, which
        ``DType.__reduce__`` keeps sound."""
        header, *rows = (line.split() for line in self.PAIRWISE.strip().splitlines())
        assert sorted(header) == sorted(dt._ALL)
        for a, *results in rows:
            for b, want in zip(header, results):
                x, y = dt.get_dtype(a), dt.get_dtype(b)
                if repickle:
                    x, y = pickle.loads(pickle.dumps(x)), pickle.loads(pickle.dumps(y))
                assert dt.promote(x, y) is dt.get_dtype(want), (a, b)


class TestDTypePickling:
    @pytest.mark.parametrize("dtype_name", sorted(dt._ALL))
    def test_dtype_unpickles_to_interned_singleton(self, dtype_name):
        dtype = dt.get_dtype(dtype_name)
        assert pickle.loads(pickle.dumps(dtype)) is dtype

