"""Tests for weight uniquification (paper Section 2.2 / Fig. 3)."""

import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor as rt
from repro.core.dkm import default_temperature
from repro.core.uniquify import (
    FLOAT32_OVERFLOW,
    MAX_UNIQUE_16BIT,
    _decompose_histogram,
    attention_table,
    attention_table_ku,
    dense_attention_map,
    float32_temperature,
    index_dtype_for,
    reconstruct_attention_map,
    uniquify,
)
from repro.tensor import dtype as dtype_module
from repro.tensor.dtype import bfloat16, bit_pattern16, decode_pattern16, float16, uint16, int32
from repro.tensor import ops
from repro.tensor.pairwise import _sum_rows_pairwise

from tests.oracles import attention_table_ku_negate, attention_table_uk, pattern16_inputs


def _weights(n=5000, seed=0, dtype=bfloat16):
    values = (np.random.default_rng(seed).standard_normal(n) * 0.05).astype(np.float32)
    return dtype.project(values)


class TestUniquify:
    def test_module_is_reachable_as_an_attribute(self):
        """``repro.core.uniquify`` is the module, not the function of the
        same name that ``repro.core`` used to re-export over it."""
        import repro.core
        import repro.core.uniquify as module

        assert module is sys.modules["repro.core.uniquify"]
        assert repro.core.uniquify is module
        assert module.HISTOGRAM_MIN_SIZE > 0 and callable(module.uniquify)

    def test_reconstruction_is_lossless(self):
        w = _weights()
        unique = uniquify(w, bfloat16)
        assert np.array_equal(unique.reconstruct_values().astype(np.float32), w)

    def test_unique_count_bounded(self):
        unique = uniquify(_weights(200_000), bfloat16)
        assert unique.n_unique <= MAX_UNIQUE_16BIT
        assert unique.n_unique < unique.n_weights

    def test_counts_sum_to_n(self):
        unique = uniquify(_weights(), bfloat16)
        assert unique.counts.sum() == unique.n_weights

    def test_duplicates_share_index(self):
        w = bfloat16.project(np.array([0.5, 0.25, 0.5, 0.5], dtype=np.float32))
        unique = uniquify(w, bfloat16)
        assert unique.n_unique == 2
        idx = unique.index_list
        assert idx[0] == idx[2] == idx[3]
        assert idx[0] != idx[1]

    def test_multidim_shape_preserved(self):
        w = _weights(120).reshape(10, 12)
        unique = uniquify(w, bfloat16)
        assert unique.source_shape == (10, 12)
        assert unique.reconstruct_values().shape == (10, 12)

    def test_fp16_keying(self):
        w = np.random.default_rng(1).standard_normal(1000).astype(np.float16)
        unique = uniquify(w, float16)
        assert np.allclose(
            unique.reconstruct_values(), w.astype(np.float32), atol=1e-6
        )

    def test_compression_ratio(self):
        unique = uniquify(_weights(50_000), bfloat16)
        assert unique.compression_ratio > 10  # heavy duplication at bf16

    def test_index_dtype_selection(self):
        assert index_dtype_for(10) is uint16
        assert index_dtype_for(MAX_UNIQUE_16BIT) is uint16
        assert index_dtype_for(MAX_UNIQUE_16BIT + 1) is int32


class TestAttentionTable:
    def test_rows_sum_to_one(self):
        table = attention_table(np.linspace(-1, 1, 50), np.linspace(-1, 1, 8), 0.01)
        assert np.allclose(table.sum(axis=1), 1.0, rtol=1e-6)

    def test_nearest_centroid_dominates_at_low_temperature(self):
        centroids = np.array([-1.0, 0.0, 1.0], dtype=np.float32)
        table = attention_table(np.array([0.05]), centroids, 1e-4)
        assert table[0].argmax() == 1
        assert table[0, 1] > 0.99

    def test_uniform_at_high_temperature(self):
        centroids = np.array([-1.0, 0.0, 1.0], dtype=np.float32)
        table = attention_table(np.array([0.0]), centroids, 1e6)
        assert np.allclose(table[0], 1.0 / 3.0, atol=1e-3)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            attention_table(np.zeros(2), np.zeros(2), 0.0)

    @pytest.mark.parametrize("kernel", [attention_table, attention_table_ku])
    @pytest.mark.parametrize(
        "temperature", [math.nan, math.inf, -math.inf, 1e-50, 0.0, -1.0, 1e39]
    )
    def test_temperature_must_be_finite_and_positive_in_float32(self, kernel, temperature):
        # NaN or 1e-50 (0.0 in float32) would make every entry NaN, +inf or
        # 1e39 (inf in float32) every column uniform.  Refused, not warned.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and positive in float32"):
                kernel(np.linspace(-1, 1, 5), np.linspace(-1, 1, 4), temperature)

    def test_float32_overflow_boundary(self):
        """The largest float64 below the bound rounds to float32's max and is
        accepted; the bound itself rounds to inf and is refused."""
        below = np.nextafter(FLOAT32_OVERFLOW, 0.0)
        assert float32_temperature(below) == np.finfo(np.float32).max
        with np.errstate(over="ignore"):
            assert np.isinf(np.float32(FLOAT32_OVERFLOW))
        with pytest.raises(ValueError, match="finite and positive in float32"):
            float32_temperature(FLOAT32_OVERFLOW)

    def test_equal_weights_equal_rows(self):
        """The theorem behind uniquification: equal bits => equal rows."""
        w = np.array([0.125, 0.125], dtype=np.float32)
        table = attention_table(w, np.linspace(-1, 1, 4), 0.01)
        assert np.array_equal(table[0], table[1])


class TestReconstruction:
    def test_table_lookup_equals_dense_map(self):
        """Fig. 3's factorization is exact: table[index] == dense map."""
        w = _weights(3000)
        centroids = np.linspace(w.min(), w.max(), 8).astype(np.float32)
        unique = uniquify(w, bfloat16)
        table = attention_table(unique.values, centroids, 1e-3)
        dense = dense_attention_map(w, centroids, 1e-3)
        rebuilt = reconstruct_attention_map(table, unique.index_list)
        assert np.array_equal(rebuilt, dense)

    def test_memory_arithmetic(self):
        """Table is O(|C|) rows; index list is O(|W|) narrow integers."""
        w = _weights(100_000)
        unique = uniquify(w, bfloat16)
        k = 8
        dense_bytes = unique.n_weights * k * 4
        table_bytes = unique.n_unique * k * 4
        index_bytes = unique.n_weights * 2
        assert table_bytes + index_bytes < dense_bytes / 5


def _finite_decodes(dtype):
    values = decode_pattern16(np.arange(MAX_UNIQUE_16BIT, dtype=np.uint16), dtype)
    return values[np.isfinite(values)]


_VALUE_POOLS = {
    "bf16": _finite_decodes(bfloat16),  # up to 3.4e38: squares overflow, rows go NaN
    "fp16": _finite_decodes(float16),
    "weights": bfloat16.project(
        (np.random.default_rng(0).standard_normal(4096) * 0.05).astype(np.float32)
    ),
}
_KERNEL_KS = [*range(1, 18), 31, 32, 33, 64, 127, 128, 129, 130, 256, 257]


@st.composite
def _kernel_cases(draw):
    k = draw(st.sampled_from(_KERNEL_KS))
    u = draw(st.sampled_from([0, 1, 7, 8, 9, 2003] + ([MAX_UNIQUE_16BIT] if k <= 16 else [])))
    pool = _VALUE_POOLS[draw(st.sampled_from(sorted(_VALUE_POOLS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.choice(pool, size=u)
    centroids = np.sort(rng.choice(pool, size=k))
    with np.errstate(all="ignore"):
        default = default_temperature(values, k) if u else 1e-8
    temperature = draw(st.sampled_from([1e-12, default, 1.0]))
    return values, centroids, temperature


class TestSweepKernel:
    """The (k, u) kernel is byte-equal to the (u, k) formulation it replaced."""

    @given(_kernel_cases())
    @settings(max_examples=250, deadline=None)
    def test_table_bytes_equal_oracle(self, case):
        values, centroids, temperature = case
        with np.errstate(over="ignore"):
            t = np.float32(temperature)
        valid = math.isfinite(t) and t > 0
        if not valid:
            # An extreme pool's spread overflows float32, and its default
            # temperature with it.
            with pytest.raises(ValueError, match="finite and positive"):
                attention_table(values, centroids, temperature)
            return
        with np.errstate(all="ignore"):
            want = attention_table_uk(values, centroids, temperature)
            got = attention_table(values, centroids, temperature)
            got_ku = attention_table_ku(values, centroids, temperature)
        assert got.shape == want.shape == (values.size, centroids.size)
        assert got.dtype == want.dtype == np.float32
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert got_ku.shape == (centroids.size, values.size)
        assert got_ku.T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [*range(1, 41), 63, 64, 65, 100, *range(120, 138), 200, 255,
                                   256, 257, 264, 300, 512, 1000, 1031])  # fmt: skip
    def test_row_sum_reproduces_numpy_association_order(self, n):
        # The one numpy implementation detail the kernel leans on: how
        # add.reduce associates a contiguous run of n float32.
        rng = np.random.default_rng(n)
        rows = np.exp(rng.standard_normal((n, 37)).astype(np.float32) * 8)
        want = np.ascontiguousarray(rows.T).sum(axis=1)
        got = _sum_rows_pairwise(rows)
        assert got.tobytes() == want.tobytes()
        assert rows.tobytes() == np.exp(
            np.random.default_rng(n).standard_normal((n, 37)).astype(np.float32) * 8
        ).tobytes()  # the input rows are read, never accumulated into

    def test_temperature_scalar_types_agree(self):
        values, centroids = _VALUE_POOLS["weights"][:500], _VALUE_POOLS["weights"][500:508]
        want = attention_table_uk(values, centroids, 2.4e-4)
        for temperature in (2.4e-4, np.float64(2.4e-4), np.float32(2.4e-4)):
            got = attention_table(values, centroids, temperature)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_inputs_not_written(self):
        values = _VALUE_POOLS["weights"][:64].copy()
        centroids = np.sort(_VALUE_POOLS["weights"][64:72]).copy()
        before = values.tobytes(), centroids.tobytes()
        first = attention_table(values, centroids, 1e-3)
        second = attention_table(values, centroids, 1e-3)
        assert (values.tobytes(), centroids.tobytes()) == before
        assert first is not second and not np.shares_memory(first, second)

    def test_accepts_any_input_layout(self):
        values = _VALUE_POOLS["weights"][:400].reshape(20, 20).T[::2]  # 2-D, strided
        centroids = _VALUE_POOLS["weights"][1000:1016:2].astype(np.float64)
        want = attention_table_uk(values, centroids, 1e-3)
        assert attention_table(values, centroids, 1e-3).tobytes() == want.tobytes()

    @pytest.mark.parametrize("u", [1, 7, 127, 128, 2003, 9000])
    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_sweep_table_equals_the_softmax_op(self, u, k):
        # One kernel: the sweep's (k, u) table and the autograd op's softmax
        # over the same (u, k) logits are the same bytes.
        values = _VALUE_POOLS["weights"][np.arange(u) % 4096]
        centroids = np.sort(_VALUE_POOLS["weights"][:k])
        temperature = default_temperature(values, k)
        logits = np.negative(np.square(values.reshape(-1, 1) - centroids.reshape(1, -1)))
        logits /= np.float32(temperature)
        got = ops.softmax(rt.tensor(logits), dim=1).numpy()
        assert got.tobytes() == attention_table_ku(values, centroids, temperature).T.tobytes()

    # bf16 subnormals (patterns 0x0001-0x007F, both signs): their differences
    # are subnormal and their squares underflow to zero.
    _SUBNORMALS = decode_pattern16(np.arange(1, 0x80, dtype=np.uint16), bfloat16)

    @pytest.mark.parametrize("temperature", [1e-38, 1e-12, 2.4e-4, 1.0, 1e30])
    @pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 127, 128, 129, 256])
    def test_logits_equal_negate_then_divide(self, k, temperature):
        # One divide by -t is the bytes of a negate followed by a divide by t:
        # w == c (zero distances), subnormal and underflowing logits included.
        rng = np.random.default_rng(k)
        pool = np.concatenate([
            _VALUE_POOLS["weights"], self._SUBNORMALS, -self._SUBNORMALS,
            np.float32([0.0, -0.0, 1e-30, -1e-30, 1e30, 3.0e38]),
        ])  # fmt: skip
        centroids = np.sort(rng.choice(pool, size=k))
        values = np.concatenate([centroids, pool, rng.choice(pool, size=1000)])
        with np.errstate(all="ignore"):
            want = attention_table_ku_negate(values, centroids, temperature)
            got = attention_table_ku(values, centroids, temperature)
        assert got.shape == want.shape == (k, values.size)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[:, :k].diagonal() > 0)  # each centroid's own column


class TestHistogramTail:
    """``_decompose_histogram`` after the bincount: O(N + u), equal to ``np.unique``."""

    @staticmethod
    def _assert_equals_np_unique(patterns):
        got_patterns, got_index, got_counts = _decompose_histogram(patterns)
        want_patterns, want_index, want_counts = np.unique(
            patterns, return_inverse=True, return_counts=True
        )
        assert got_patterns.dtype == np.uint16 and got_index.dtype == np.uint16
        assert got_counts.dtype == want_counts.dtype
        assert got_index.shape == patterns.shape
        assert np.array_equal(got_patterns, want_patterns)
        assert np.array_equal(got_index, want_index.reshape(-1))
        assert np.array_equal(got_counts, want_counts)

    def test_every_pattern_present(self):
        # u = 65 536: the last rank, 65 535, must fit the LUT's uint16.
        rng = np.random.default_rng(0)
        patterns = rng.permutation(np.repeat(np.arange(MAX_UNIQUE_16BIT, dtype=np.uint16), 2))
        self._assert_equals_np_unique(patterns)
        index = _decompose_histogram(patterns)[1]
        assert index.max() == MAX_UNIQUE_16BIT - 1

    @pytest.mark.parametrize("n_present", [1, 2, 1999])
    def test_sparse_patterns(self, n_present):
        rng = np.random.default_rng(n_present)
        present = rng.choice(MAX_UNIQUE_16BIT, size=n_present, replace=False).astype(np.uint16)
        self._assert_equals_np_unique(rng.choice(present, size=10_000))

    def test_float16_specials_over_the_whole_domain(self):
        # Every float16 bit pattern once, +-0, +-inf and all 2 046 NaNs included.
        weights = np.arange(MAX_UNIQUE_16BIT, dtype=np.uint16).view(np.float16)
        hist = uniquify(weights, float16, method="histogram")
        sort = uniquify(weights, float16, method="sort")
        assert hist.n_unique == MAX_UNIQUE_16BIT
        for field in ("patterns", "index_list", "counts", "values"):
            got, want = getattr(hist, field), getattr(sort, field)
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        assert hist.index_list.dtype == np.uint16

    @pytest.mark.parametrize("dtype", [bfloat16, float16], ids=["bf16", "fp16"])
    def test_non_contiguous_input(self, dtype):
        base = dtype.project(
            (np.random.default_rng(5).standard_normal((96, 80)) * 0.05).astype(np.float32)
        )
        for view in (base.T, base[::3, 1::2], base[::-1]):
            assert not view.flags.c_contiguous
            hist = uniquify(view, dtype, method="histogram")
            sort = uniquify(np.ascontiguousarray(view), dtype, method="sort")
            assert hist.source_shape == view.shape
            assert hist.index_list.flags.c_contiguous
            for field in ("patterns", "index_list", "counts", "values"):
                assert getattr(hist, field).tobytes() == getattr(sort, field).tobytes(), field


class TestOnGridRead:
    """bf16 patterns read off the stored grid decompose exactly as the rounded ones."""

    @given(pattern16_inputs(), st.sampled_from(["auto", "histogram", "sort"]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique_oracle(self, case, method, little_endian):
        # The on-grid read (little-endian, no low half set) and the rounding
        # passes both decompose exactly as np.unique over the rounded patterns.
        array, dtype, _ = case
        before = array.tobytes()
        want_patterns, want_index, want_counts = np.unique(
            bit_pattern16(array, dtype).reshape(-1), return_inverse=True, return_counts=True
        )
        with mock.patch.object(dtype_module, "_LITTLE_ENDIAN", little_endian):
            got = uniquify(array, dtype, method=method)
        assert got.patterns.dtype == np.uint16
        assert got.patterns.tobytes() == want_patterns.tobytes()
        assert got.index_list.dtype == np.uint16
        assert got.index_list.tobytes() == want_index.reshape(-1).astype(np.uint16).tobytes()
        assert got.counts.dtype == want_counts.dtype
        assert got.counts.tobytes() == want_counts.tobytes()
        assert got.values.tobytes() == decode_pattern16(want_patterns, dtype).tobytes()
        assert got.source_shape == array.shape
        assert array.tobytes() == before

    @pytest.mark.parametrize("method", ["auto", "histogram", "sort"])
    def test_all_65536_patterns_equal_np_unique(self, method):
        # u = 65 536 on the grid, NaNs and infinities included: the last rank
        # fills the uint16 index, and the gather's largest key, 0xFFFF, is
        # the LUT's last entry.
        rng = np.random.default_rng(3)
        patterns = rng.permutation(np.repeat(np.arange(MAX_UNIQUE_16BIT, dtype=np.uint16), 3))
        array = (patterns.astype(np.uint32) << 16).view(np.float32).reshape(768, 256)
        want_patterns, want_index, want_counts = np.unique(
            patterns, return_inverse=True, return_counts=True
        )
        got = uniquify(array, bfloat16, method=method)
        assert got.n_unique == MAX_UNIQUE_16BIT
        assert got.patterns.tobytes() == want_patterns.tobytes()
        assert got.index_list.dtype == np.uint16
        assert got.index_list.tobytes() == want_index.reshape(-1).astype(np.uint16).tobytes()
        assert got.counts.tobytes() == want_counts.tobytes()
        assert got.values.tobytes() == decode_pattern16(want_patterns, bfloat16).tobytes()
