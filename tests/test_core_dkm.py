"""Tests for the DKM clustering layer (dense path and refinement)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repro.tensor as rt
from repro.core import DKMConfig, dkm
from repro.core.dkm import (
    ClusterState,
    DKMClusterer,
    default_temperature,
    init_centroids_histogram,
    init_centroids_quantile,
    nearest_centroid,
)
from repro.core.uniquify import (
    HISTOGRAM_MIN_SIZE,
    reset_uniquify_call_count,
    uniquify,
    uniquify_call_count,
)
from repro.tensor.dtype import bfloat16, decode_pattern16, float16

from tests.opcount import count_ops
from tests.oracles import cluster_dense_wk, refine_uk


def _weight_tensor(n=2000, seed=0, dtype="bfloat16", requires_grad=False):
    values = (np.random.default_rng(seed).standard_normal(n) * 0.05).astype(np.float32)
    return rt.Tensor.from_numpy(
        values, dtype=dtype, device="gpu", requires_grad=requires_grad
    )


class TestConfig:
    def test_n_clusters(self):
        assert DKMConfig(bits=3).n_clusters == 8
        assert DKMConfig(bits=4).n_clusters == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            DKMConfig(bits=0)
        with pytest.raises(ValueError):
            DKMConfig(bits=9)
        with pytest.raises(ValueError):
            DKMConfig(temperature=-1.0)
        with pytest.raises(ValueError):
            DKMConfig(temperature=float("nan"))
        with pytest.raises(ValueError):
            DKMConfig(temperature=1e-50)  # 0.0 in float32
        with pytest.raises(ValueError):
            DKMConfig(iters=0)


class TestInitialization:
    def test_quantile_init_spans_distribution(self):
        values = np.random.default_rng(0).standard_normal(10_000).astype(np.float32)
        centroids = init_centroids_quantile(values, 8)
        assert centroids.shape == (8,)
        assert np.all(np.diff(centroids) > 0)  # sorted, distinct
        assert centroids[0] > values.min()
        assert centroids[-1] < values.max()

    def test_default_temperature_positive_and_scale_aware(self):
        small = default_temperature(np.array([0.0, 0.01]), 8)
        large = default_temperature(np.array([0.0, 1.0]), 8)
        assert 0 < small < large

    def test_default_temperature_degenerate_distribution(self):
        assert default_temperature(np.array([0.5, 0.5]), 8) > 0


class TestRefinement:
    def test_centroids_converge(self):
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=30))
        w = _weight_tensor()
        state = clusterer.refine(w)
        before = state.centroids.copy()
        state2 = clusterer.refine(w)
        # Re-refining an already-converged state moves centroids little.
        assert np.abs(state2.centroids - before).max() < 1e-3

    def test_reconstruction_error_below_random_codebook(self):
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=10))
        w = _weight_tensor()
        clusterer.refine(w)
        refined_err = clusterer.reconstruction_error(w)
        random_clusterer = DKMClusterer(DKMConfig(bits=3, iters=10))
        random_clusterer.state = type(clusterer.state)(
            centroids=np.random.default_rng(0)
            .uniform(-0.2, 0.2, 8)
            .astype(np.float32),
            temperature=clusterer.state.temperature,
        )
        random_err = random_clusterer.reconstruction_error(w)
        assert refined_err < random_err

    def test_more_bits_lower_error(self):
        w = _weight_tensor()
        errors = []
        for bits in (2, 3, 4):
            clusterer = DKMClusterer(DKMConfig(bits=bits, iters=10))
            clusterer.refine(w)
            errors.append(clusterer.reconstruction_error(w))
        assert errors[0] > errors[1] > errors[2]

    def test_warm_start_preserved_across_calls(self):
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=2))
        w = _weight_tensor()
        clusterer.refine(w)
        first = clusterer.state
        clusterer.refine(w)
        assert clusterer.state is first  # same state object, warm-started

    def test_explicit_temperature_respected(self):
        clusterer = DKMClusterer(DKMConfig(bits=3, temperature=0.123))
        clusterer.refine(_weight_tensor())
        assert clusterer.state.temperature == 0.123

    def test_hard_assign_requires_state(self):
        clusterer = DKMClusterer(DKMConfig())
        with pytest.raises(RuntimeError):
            clusterer.hard_assign(_weight_tensor())

    def test_hard_assign_nearest(self):
        clusterer = DKMClusterer(DKMConfig(bits=2, iters=1))
        w = _weight_tensor(100)
        state = clusterer.refine(w)
        assignments = clusterer.hard_assign(w)
        flat = w.numpy().reshape(-1)
        expected = np.argmin(
            (flat[:, None] - state.centroids[None, :]) ** 2, axis=1
        )
        assert np.array_equal(assignments, expected)


@st.composite
def _ranked_case(draw):
    """Sorted centroids (repeats allowed) on a 2**-8 grid in [-2, 2], and
    float32 values in [-3, 3] that include every adjacent midpoint.

    The grid keeps centroid gaps far above float32 resolution at these
    magnitudes: centroids closer than the rounding of ``(v - c) ** 2``
    would make distant values tie and fall to the lower index, which is
    the one way finite arithmetic could break the order.
    """
    grid = draw(st.lists(st.integers(-512, 512), min_size=1, max_size=16))
    centroids = np.sort(np.asarray(grid, dtype=np.float32) / 256)
    values = draw(
        st.lists(
            st.floats(-3, 3, width=32, allow_subnormal=False), min_size=1, max_size=300
        )
    )
    midpoints = (centroids[:-1] + centroids[1:]) / 2
    return centroids, np.concatenate([np.asarray(values, np.float32), midpoints])


def _assert_rank_monotone(values, centroids, assignments):
    """Non-decreasing in the value; ties (repeats, midpoints) to the lower index."""
    order = np.argsort(values, kind="stable")
    # Widen first: a uint8 diff wraps, so a decreasing step would read 255.
    assert np.all(np.diff(assignments[order].astype(np.int64)) >= 0)
    first = np.searchsorted(centroids, centroids, side="left")
    assert np.array_equal(first[assignments], assignments)  # first of a repeat run
    for i in range(len(centroids) - 1):
        midpoint = (centroids[i] + centroids[i + 1]) / 2
        if centroids[i] < centroids[i + 1]:
            assert np.all(assignments[values == midpoint] == first[i])


class TestRankMonotonicity:
    """With sorted centroids, hard assignment only reads a weight's rank:
    the index is non-decreasing in the value, ties to the lower index."""

    @given(_ranked_case(), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_nearest_centroid_across_chunks(self, case, chunk):
        centroids, values = case
        assignments = nearest_centroid(values, centroids, chunk=chunk)
        _assert_rank_monotone(values, centroids, assignments)

    @pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
    @given(case=_ranked_case())
    @settings(max_examples=100, deadline=None)
    def test_hard_assign(self, dtype, case):
        centroids, values = case
        weights = rt.Tensor.from_numpy(values, dtype=dtype, device="gpu")
        # ``hard_assign`` dispatches on the weights' dtype, not the config's.
        clusterer = DKMClusterer(DKMConfig(bits=4))
        clusterer.state = ClusterState(centroids=centroids, temperature=1.0)
        assignments = np.asarray(clusterer.hard_assign(weights))
        stored = weights.numpy().reshape(-1)  # values after the dtype's rounding
        _assert_rank_monotone(stored, centroids, assignments)


@st.composite
def _histogram_case(draw):
    """Distinct finite float32 values in any order (bf16 patterns, or
    normals on a coarse grid), counts from 1 up, and ``k`` up to 256;
    +0.0 and -0.0 are mixed in, together or alone."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_values = draw(st.sampled_from([1, 2, 3, 17, 300]))
    if draw(st.booleans()):
        patterns = rng.integers(0, 1 << 16, n_values).astype(np.uint32) << 16
        values = patterns.view(np.float32)
    else:
        values = (np.round(rng.standard_normal(n_values) * 64) / 256).astype(np.float32)
    zeros = draw(st.sampled_from([[], [0.0], [-0.0], [0.0, -0.0]]))
    values = np.concatenate([values[np.isfinite(values)], np.array(zeros, np.float32)])
    _, first = np.unique(values.view(np.uint32), return_index=True)
    values = rng.permutation(values[first])  # distinct patterns, like uniquify's
    assume(values.size)
    top = draw(st.sampled_from([1, 2, 50, 5000]))
    counts = rng.integers(1, top + 1, values.size)
    k = draw(st.sampled_from([1, 2, 3, 8, 16, 256]))
    return values, counts, k


class TestHistogramInit:
    """Centroid init read off ``(values, counts)`` is byte-equal to the
    quantiles of the repeated weights it replaced."""

    @given(_histogram_case())
    @settings(max_examples=300, deadline=None)
    def test_equals_quantile_of_the_repeat(self, case):
        values, counts, k = case
        got = init_centroids_histogram(values, counts, k)
        want = init_centroids_quantile(values.repeat(counts), k)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "values, counts",
        [
            ([0.25], [1]),  # one value
            ([0.25], [1000]),
            ([0.5, -1.0, 2.0, 0.125], [1, 1, 1, 1]),  # counts of 1
            # Both zeros: the repeat fallback.  Read off the sorted unique
            # values, the median of the first is -0.0 and of the second 0.0;
            # np.partition leaves the other zero there.
            ([0.0, 0.75, -0.0], [4, 5, 3]),
            ([-0.5, -0.0, 0.25, 0.0], [3, 5, 5, 5]),
            ([-0.0, -1.0, 1.0], [4, 1, 1]),  # one zero sign: no fallback needed
        ],
    )
    @pytest.mark.parametrize("k", [1, 8, 256])
    def test_edge_cases(self, values, counts, k):
        values = np.array(values, np.float32)
        counts = np.array(counts, np.int64)
        want = init_centroids_quantile(values.repeat(counts), k)
        assert init_centroids_histogram(values, counts, k).tobytes() == want.tobytes()

    def test_cold_refine_starts_from_the_histogram(self, monkeypatch):
        import repro.core.dkm as dkm

        calls = []
        monkeypatch.setattr(dkm, "init_centroids_quantile", lambda *a: calls.append(a))
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=1))
        clusterer.refine(_weight_tensor())
        assert calls == []  # no repeat, no np.quantile


def _index_list_gather(weights, centroids):
    """The uint8 hard assignment gathered by the index list, as before the
    pattern table: ``assign_u.astype(uint8).take(index_list)``."""
    unique = uniquify(weights._np(), weights.dtype)
    return nearest_centroid(unique.values, centroids).astype(np.uint8).take(unique.index_list)


class TestHardAssignUint8:
    """``hard_assign`` returns uint8, the bytes of the index-list gather."""

    @pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
    @given(case=_ranked_case(), bits=st.sampled_from([4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_equals_int64_gather(self, dtype, case, bits):
        centroids, values = case
        weights = rt.Tensor.from_numpy(values, dtype=dtype, device="gpu")
        clusterer = DKMClusterer(DKMConfig(bits=bits))
        clusterer.state = ClusterState(centroids=centroids, temperature=1.0)
        got = clusterer.hard_assign(weights)
        unique = uniquify(weights._np(), weights.dtype)
        want = nearest_centroid(unique.values, centroids)[unique.index_list.astype(np.int64)]
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_all_256_centroids(self):
        centroids = np.linspace(-1, 1, 256).astype(np.float32)
        weights = rt.Tensor.from_numpy(centroids, dtype="bfloat16", device="gpu")
        clusterer = DKMClusterer(DKMConfig(bits=8))
        clusterer.state = ClusterState(centroids=centroids, temperature=1.0)
        got = clusterer.hard_assign(weights)
        want = _index_list_gather(weights, centroids)
        assert got.dtype == np.uint8 and want.max() == 255
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [bfloat16, float16], ids=["bf16", "fp16"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.sampled_from([1, 3, 4, 8]),
        n_extra=st.sampled_from([0, 64, 5056]),
    )
    @settings(max_examples=12, deadline=None)
    def test_pattern_table_equals_index_list_gather(self, dtype, seed, bits, n_extra):
        # Every one of the 65 536 patterns -- NaNs, infinities and both
        # zeros included -- in random order, some repeated.
        rng = np.random.default_rng(seed)
        every = np.arange(1 << 16, dtype=np.uint16)
        patterns = rng.permutation(np.concatenate([every, rng.choice(every, n_extra)]))
        weights = rt.Tensor.from_numpy(
            decode_pattern16(patterns, dtype).reshape(-1, 64), dtype=dtype, device="gpu"
        )
        centroids = np.sort(rng.standard_normal(1 << bits).astype(np.float32))
        clusterer = DKMClusterer(DKMConfig(bits=bits))
        clusterer.state = ClusterState(centroids=centroids, temperature=1.0)
        with np.errstate(invalid="ignore", over="ignore"):  # the NaN and inf distances
            got = clusterer.hard_assign(weights)
            want = _index_list_gather(weights, centroids)
        assert got.dtype == want.dtype == np.uint8
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64", "uint16", "int64"])
    @pytest.mark.parametrize("method", ["hard_assign", "reconstruction_error"])
    def test_non_16bit_float_weights_raise(self, dtype, method):
        weights = rt.Tensor.from_numpy(np.arange(8, dtype=np.float32), dtype=dtype)
        clusterer = DKMClusterer(DKMConfig(bits=2))
        clusterer.state = ClusterState(
            centroids=np.linspace(0, 7, 4, dtype=np.float32), temperature=1.0
        )
        with pytest.raises(TypeError, match="16-bit floating"):
            getattr(clusterer, method)(weights)


class TestRefineRejectsUnclusterableWeights:
    """A weight refine cannot cluster raises before any state exists or moves."""

    @staticmethod
    def _poisoned(value, n_bad=1):
        values = (np.random.default_rng(0).standard_normal(2000) * 0.05).astype(np.float32)
        values[:n_bad] = value
        return rt.Tensor.from_numpy(values, dtype="bfloat16", device="gpu")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_cold_raises_and_creates_no_state(self, value):
        clusterer = DKMClusterer(DKMConfig(bits=3))
        with pytest.raises(FloatingPointError, match="1 of .* unique patterns"):
            clusterer.refine(self._poisoned(value))
        assert clusterer.state is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_warm_raises_and_leaves_state_untouched(self, value):
        clusterer = DKMClusterer(DKMConfig(bits=3))
        clusterer.refine(_weight_tensor())
        state = clusterer.state
        centroids = state.centroids.copy()
        snapshot = (state.temperature, state.iterations_run)
        with pytest.raises(FloatingPointError):
            clusterer.refine(self._poisoned(value), cache_table=True)
        assert clusterer.state is state
        assert state.centroids.tobytes() == centroids.tobytes()
        assert (state.temperature, state.iterations_run) == snapshot
        assert np.isfinite(state.centroids).all()
        # and the layer still trains once the weight is finite again
        clusterer.refine(_weight_tensor(seed=1))
        assert np.isfinite(clusterer.state.centroids).all()

    def test_message_counts_unique_patterns_not_weights(self):
        values = np.zeros(100, dtype=np.float32)
        values[:40] = np.inf  # 40 weights, one pattern
        values[40:50] = -np.inf
        w = rt.Tensor.from_numpy(values, dtype="bfloat16", device="gpu")
        with pytest.raises(FloatingPointError, match="2 of 3 unique patterns"):
            DKMClusterer(DKMConfig(bits=2)).refine(w)

    def test_empty_weight(self):
        clusterer = DKMClusterer(DKMConfig(bits=3))
        empty = rt.Tensor.from_numpy(np.zeros((0, 8), np.float32), dtype="bfloat16", device="gpu")
        with pytest.raises(ValueError, match="cannot cluster an empty weight"):
            clusterer.refine(empty)
        assert clusterer.state is None



def _parked(cache):
    """The carried ``(centroids, temperature, table)``, read without
    counting a table lookup, or ``None`` when refine parked nothing."""
    if cache._table is None:
        return None
    return (cache._table_centroids, cache._table_temperature, cache._table)


class TestRefineEqualsOracle:
    """``refine`` on the (k, u) kernel is byte-equal to the (u, k) loop it replaced."""

    @staticmethod
    def _pair(config, weights, steps=1, cache_table=True):
        """Run kernel and oracle side by side; return both clusterers + call counts."""
        runs = []
        for refine in (DKMClusterer.refine, refine_uk):
            clusterer = DKMClusterer(config)
            reset_uniquify_call_count()
            for _ in range(steps):
                state = refine(clusterer, weights, cache_table=cache_table)
            assert state is clusterer.state
            runs.append((clusterer, uniquify_call_count()))
        return runs

    @staticmethod
    def _assert_same(got, want):
        (got, got_calls), (want, want_calls) = got, want
        assert got.state.centroids.dtype == want.state.centroids.dtype == np.float32
        assert got.state.centroids.tobytes() == want.state.centroids.tobytes()
        assert got.state.temperature == want.state.temperature
        assert got.state.iterations_run == want.state.iterations_run
        assert got_calls == want_calls
        assert vars(got.fastpath.stats) == vars(want.fastpath.stats)
        got_entry, want_entry = _parked(got.fastpath), _parked(want.fastpath)
        assert (got_entry is None) == (want_entry is None)
        if want_entry is not None:
            for got_part, want_part in zip(got_entry, want_entry):
                assert np.asarray(got_part).tobytes() == np.asarray(want_part).tobytes()
            assert got_entry[2].shape == want_entry[2].shape
            assert got_entry[2].flags.c_contiguous

    @pytest.mark.parametrize("iters", [1, 4, 5])
    @pytest.mark.parametrize("bits", [1, 3, 4, 8])
    @pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
    def test_cold_then_warm(self, iters, bits, dtype):
        config = DKMConfig(bits=bits, iters=iters, weight_dtype=rt.get_dtype(dtype))
        w = _weight_tensor(6000, seed=bits, dtype=dtype)
        got, want = self._pair(config, w, steps=3)
        self._assert_same(got, want)
        assert got[0].state.iterations_run == 3 * iters

    def test_counts_up_to_2_pow_20(self):
        # One pattern held by 2^20 weights beside singletons: the float64
        # denom/numer terms span 20 binades.  The gemm adds them in BLAS's
        # order, not the oracle's, and the float32 centroids still match.
        rng = np.random.default_rng(7)
        singletons = (rng.standard_normal(5000) * 0.05).astype(np.float32)
        values = np.concatenate([np.full(1 << 20, 0.0625, np.float32), singletons])
        w = rt.Tensor.from_numpy(rng.permutation(values), dtype="bfloat16", device="gpu")
        got, want = self._pair(DKMConfig(bits=3, iters=4), w, steps=2)
        self._assert_same(got, want)
        assert got[0].fastpath.uniquify(w, w.dtype).counts.max() >= 1 << 20

    def test_early_tol_exit(self, monkeypatch):
        monkeypatch.setattr(dkm, "TOL", 1.0)
        got, want = self._pair(DKMConfig(bits=3, iters=4), _weight_tensor())
        self._assert_same(got, want)
        assert got[0].state.iterations_run == 1  # left the loop, table still parked
        assert _parked(got[0].fastpath) is not None

    def test_without_cache_table_parks_nothing(self):
        got, want = self._pair(DKMConfig(bits=3, iters=4), _weight_tensor(), cache_table=False)
        self._assert_same(got, want)
        assert _parked(got[0].fastpath) is None

    def test_explicit_temperature_and_degenerate_weight(self):
        constant = rt.Tensor.from_numpy(
            np.full(300, 0.125, np.float32), dtype="bfloat16", device="gpu"
        )
        for config, w in (
            (DKMConfig(bits=3, iters=4, temperature=0.3), _weight_tensor()),
            (DKMConfig(bits=2, iters=4), constant),  # u = 1, spread 0
        ):
            got, want = self._pair(config, w, steps=2)
            self._assert_same(got, want)


@st.composite
def _refine_case(draw):
    """A refine input: distribution, scale, size either side of the
    histogram cut-over (both uniquify paths), bits and 16-bit dtype."""
    kind = draw(st.sampled_from(["normal", "student_t3", "uniform"]))
    scale = 10.0 ** draw(st.floats(-3.0, 0.0))
    n = draw(
        st.one_of(
            st.integers(1, HISTOGRAM_MIN_SIZE - 1),
            st.integers(HISTOGRAM_MIN_SIZE, 3 * HISTOGRAM_MIN_SIZE),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    draws = {
        "normal": lambda: rng.standard_normal(n),
        "student_t3": lambda: rng.standard_t(3, n),
        "uniform": lambda: rng.uniform(-1.0, 1.0, n),
    }
    values = (draws[kind]() * scale).astype(np.float32)
    dtype = draw(st.sampled_from(["bfloat16", "float16"]))
    bits = draw(st.integers(1, 8))
    config = DKMConfig(bits=bits, iters=draw(st.integers(1, 5)), weight_dtype=rt.get_dtype(dtype))
    return config, rt.Tensor.from_numpy(values, dtype=dtype, device="gpu")


class TestRefineGemm:
    """The centroid update is one float64 gemm: byte-equal to the oracle on
    the inputs its ULP contract covers, in one ``(k, u)`` scratch table."""

    @given(case=_refine_case())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_three_refines_equal_oracle(self, case):
        config, w = case
        got, want = DKMClusterer(config), DKMClusterer(config)
        for _ in range(3):
            DKMClusterer.refine(got, w, cache_table=True)
            refine_uk(want, w, cache_table=True)
            TestRefineEqualsOracle._assert_same((got, None), (want, None))

    def test_warm_refine_scratch_is_one_table(self):
        # One iteration's scratch: the float32 table and its float64 copy,
        # 12 bytes per k*u.
        config = DKMConfig(bits=6, iters=4, weight_dtype=rt.get_dtype("float16"))
        w = _weight_tensor(3600, dtype="float16")
        clusterer = DKMClusterer(config)
        clusterer.refine(w, cache_table=True)
        u = clusterer.fastpath.uniquify(w, w.dtype).values.size
        assert 2500 <= u <= 3500
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            clusterer.refine(w, cache_table=True)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 16 * config.n_clusters * u


class TestDensePath:
    def test_output_shape_and_dtype(self):
        clusterer = DKMClusterer(DKMConfig(bits=3))
        w = _weight_tensor(96, requires_grad=True)
        out = clusterer.cluster_dense(w)
        assert out.shape == w.shape
        assert out.dtype is w.dtype

    def test_output_near_weights(self):
        clusterer = DKMClusterer(DKMConfig(bits=4, iters=10))
        w = _weight_tensor(500)
        w.requires_grad = True
        out = clusterer.cluster_dense(w)
        err = np.mean((out.numpy() - w.numpy()) ** 2)
        assert err < np.var(w.numpy()) * 0.05

    def test_gradient_flows_to_weights(self):
        clusterer = DKMClusterer(DKMConfig(bits=3))
        w = _weight_tensor(200, requires_grad=True)
        out = clusterer.cluster_dense(w)
        (out * out).sum().backward()
        assert w.grad is not None
        assert float(np.abs(w.grad.numpy()).max()) > 0

    def test_2d_weight_supported(self):
        clusterer = DKMClusterer(DKMConfig(bits=3))
        w = rt.Tensor.from_numpy(
            np.random.default_rng(0).standard_normal((16, 8)).astype(np.float32) * 0.1,
            dtype="bfloat16",
            device="gpu",
            requires_grad=True,
        )
        out = clusterer.cluster_dense(w)
        assert out.shape == (16, 8)

    def test_no_grad_forward_first_keeps_recording_grads_bit_identical(self):
        """A no-grad forward before a recording one leaves its gradients
        equal to those of a clusterer that only ever recorded."""
        import repro.tensor.autograd as autograd

        def grads(warm_no_grad):
            clusterer = DKMClusterer(DKMConfig(bits=3, iters=3))
            w = _weight_tensor(seed=5, requires_grad=True)
            if warm_no_grad:
                with autograd.no_grad():
                    clusterer.cluster_dense(w)
            else:
                clusterer.cluster_dense(w)
            out = clusterer.cluster_dense(w)
            (out * out).sum().backward()
            return w.grad.numpy()

        assert np.array_equal(grads(warm_no_grad=True), grads(warm_no_grad=False))

    def test_saved_tensor_complexity_is_w_times_c(self):
        """The dense path saves O(|W|·|C|) tensors -- DKM's memory wall."""
        packed_bytes = []

        def pack(t):
            packed_bytes.append(t.storage.nbytes)
            return t

        clusterer = DKMClusterer(DKMConfig(bits=3))
        w = _weight_tensor(1000, requires_grad=True)
        with rt.saved_tensors_hooks(pack, lambda h: h):
            clusterer.cluster_dense(w)
        # At least one saved tensor has N*k*4 bytes (the attention map).
        assert max(packed_bytes) >= 1000 * 8 * 4


class TestDenseOnePath:
    """``cluster_dense`` has one path: the primitive composition every
    training forward runs, recording gradients or not."""

    @staticmethod
    def _recording_and_not(config, mode, dtype="bfloat16", n=2000):
        """The recording forward and a ``mode`` one from equal cold states."""
        import repro.tensor.autograd as autograd

        recording = DKMClusterer(config)
        quiet = DKMClusterer(config)
        want = recording.cluster_dense(
            _weight_tensor(n, seed=6, dtype=dtype, requires_grad=True)
        )
        if mode == "no_grad":
            with autograd.no_grad():
                got = quiet.cluster_dense(
                    _weight_tensor(n, seed=6, dtype=dtype, requires_grad=True)
                )
        else:  # a frozen weight under grad mode
            got = quiet.cluster_dense(_weight_tensor(n, seed=6, dtype=dtype))
        assert recording.state.centroids.tobytes() == quiet.state.centroids.tobytes()
        assert recording.state.temperature == quiet.state.temperature
        return recording, quiet, want, got

    @pytest.mark.parametrize("mode", ["no_grad", "frozen"])
    @pytest.mark.parametrize("bits", [1, 3, 4])
    @pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
    def test_forward_without_grad_is_byte_equal_to_recording(self, mode, bits, dtype):
        # 60 000 weights: enough that a last-bit float32 difference (the
        # unique-space mixture once served here) survives the 16-bit cast.
        config = DKMConfig(bits=bits, iters=3, weight_dtype=rt.get_dtype(dtype))
        _, _, want, got = self._recording_and_not(config, mode, dtype, n=60_000)
        assert got.dtype is want.dtype
        assert got.shape == want.shape
        assert got.numpy().tobytes() == want.numpy().tobytes()

    @pytest.mark.parametrize("mode", ["no_grad", "frozen"])
    def test_dense_forward_parks_and_reads_no_table(self, mode):
        _, quiet, _, _ = self._recording_and_not(DKMConfig(bits=3, iters=3), mode)
        assert _parked(quiet.fastpath) is None
        stats = quiet.fastpath.stats
        assert (stats.table_hits, stats.table_misses) == (0, 0)

    def test_limit_is_a_module_constant(self):
        import repro.core.dkm as dkm

        assert dkm.DENSE_SAVED_BYTES_LIMIT == 256 << 20

    def test_over_limit_raises_before_any_state(self, monkeypatch):
        import repro.core.dkm as dkm

        monkeypatch.setattr(dkm, "DENSE_SAVED_BYTES_LIMIT", 1024)
        clusterer = DKMClusterer(DKMConfig(bits=4, iters=2))
        reset_uniquify_call_count()
        with pytest.raises(MemoryError, match="eDKM path"):
            clusterer.cluster_dense(_weight_tensor(2048, requires_grad=True))
        assert clusterer.state is None
        assert uniquify_call_count() == 0
        assert clusterer.fastpath.stats.uniquify_misses == 0

    def test_limit_is_inclusive(self, monkeypatch):
        import repro.core.dkm as dkm

        n, k = 2048, 16
        monkeypatch.setattr(dkm, "DENSE_SAVED_BYTES_LIMIT", n * k * 4)
        out = DKMClusterer(DKMConfig(bits=4, iters=2)).cluster_dense(_weight_tensor(n))
        assert out.shape == (n,)
        monkeypatch.setattr(dkm, "DENSE_SAVED_BYTES_LIMIT", n * k * 4 - 1)
        with pytest.raises(MemoryError):
            DKMClusterer(DKMConfig(bits=4, iters=2)).cluster_dense(_weight_tensor(n))


def _ulp16(value, dtype):
    """The 16-bit grid's spacing at the magnitude ``value`` (a normal number)."""
    if dtype == "float16":
        return float(np.spacing(np.float16(value)))
    return float(np.spacing(np.float32(value))) * 2.0**16  # bf16 keeps 7 of float32's 23 bits


def _dense_step(compose, config, values, dtype, grad):
    """One forward and backward of ``compose``: output, weight gradient,
    tensors saved per op, the byte sizes of their distinct storages, and the
    centroids the map mixed."""
    packed = []
    w = rt.Tensor.from_numpy(values, dtype=dtype, device="gpu", requires_grad=True)
    clusterer = DKMClusterer(config)
    with count_ops() as counts:
        with rt.saved_tensors_hooks(lambda t: packed.append(t) or t, lambda t: t):
            out = compose(clusterer, w)
        out.backward(rt.Tensor.from_numpy(grad, dtype=dtype, device="gpu"))
    storages = {id(t.storage): t.storage.nbytes for t in packed}
    centroids = clusterer.state.centroids
    return out._compute(), w.grad._compute(), counts, sorted(storages.values()), centroids


class TestDenseEqualsWkOracle:
    """The ``(k, |W|)`` map against the ``(|W|, k)`` composition it replaced:
    byte-equal weight gradients, the same saved tensors and storage bytes,
    and outputs within one 16-bit ulp of the layer's largest output where
    the forward gemv rounds apart."""

    @settings(max_examples=25, deadline=None)
    @given(
        bits=st.integers(1, 8),
        dtype=st.sampled_from(["bfloat16", "float16"]),
        n=st.integers(1, 32768),
        seed=st.integers(0, 2**16),
    )
    @example(bits=8, dtype="bfloat16", n=32768, seed=0)  # k = 2^8, the largest layer
    @example(bits=3, dtype="float16", n=32768, seed=1)
    @example(bits=3, dtype="bfloat16", n=8193, seed=2)  # a moved (|W|, 8) block and one row
    @example(bits=4, dtype="float16", n=4097, seed=3)
    @example(bits=1, dtype="bfloat16", n=1, seed=4)
    # An output of -1.26e-8 (the layer's largest is 0.12): 3 bf16 ulps of its own apart.
    @example(bits=5, dtype="bfloat16", n=28581, seed=5)
    def test_matches_the_oracle(self, bits, dtype, n, seed):
        """Each output is ``R(s)`` and its oracle ``R(t)``: ``s`` and ``t``
        are float32 gemvs of one exact sum ``S = Σ_j a_j·c_j`` over the
        ``k`` map weights ``a_j`` and centroids ``c_j``, added in different
        orders, and ``R`` rounds to the nearest 16-bit value.  Any order
        errs by at most ``γ·Σ_j |a_j·c_j| ≤ γ·(1 + γ)·max|c|``, with
        ``γ = (k + 2)·u / (1 − (k + 2)·u)`` and ``u = 2⁻²⁴`` (``k`` terms;
        the softmax weights are each off by a few roundings, so they sum
        to at most ``1 + γ``).  Rounding adds half an ulp at each output's
        own magnitude, at most one ulp at the layer's largest output
        ``L`` in all.  So ``|R(s) − R(t)| ≤ ulp(L) + 2·γ·(1 + γ)·max|c|``.
        The cancellation term is absolute: near zero it is many ulps of
        the output's own (a bound of one own ulp fails), and at ``L`` it
        is below ``2⁻⁴`` of one ulp for ``k ≤ 256``."""
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal(n) * 0.05).astype(np.float32)
        values[rng.random(n) < 0.05] = 0.0
        if n % 8 == 0:
            values = values.reshape(n // 8, 8)
        grad = rng.standard_normal(values.shape).astype(np.float32)
        grad.reshape(-1)[rng.random(n) < 0.1] = 0.0
        grad.reshape(-1)[rng.random(n) < 0.05] = -0.0
        config = DKMConfig(bits=bits, iters=3, weight_dtype=rt.get_dtype(dtype))
        out, w_grad, counts, storages, centroids = _dense_step(
            DKMClusterer.cluster_dense, config, values, dtype, grad
        )
        want_out, want_grad, want_counts, want_storages, _ = _dense_step(
            cluster_dense_wk, config, values, dtype, grad
        )
        assert w_grad.tobytes() == want_grad.tobytes()
        largest = max(np.abs(out).max(), np.abs(want_out).max())
        unit = (config.n_clusters + 2) * 2.0**-24
        gamma = unit / (1.0 - unit)
        cancellation = 2.0 * gamma * (1.0 + gamma) * float(np.abs(centroids).max())
        assert np.abs(out - want_out).max() <= _ulp16(largest, dtype) + cancellation
        assert counts.saved == want_counts.saved
        assert storages == want_storages
        # The map's sums run down its rows; no outer product is passed to np.matmul.
        assert counts.moved_blocks == counts.outer_gemms == 0
        assert counts.outer_products == 1

    @pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
    def test_rounding_apart_is_rare(self, dtype):
        """At a 32 768-weight layer, fewer than 1 output in 1 000 moves."""
        rng = np.random.default_rng(7)
        values = (rng.standard_normal((256, 128)) * 0.05).astype(np.float32)
        grad = rng.standard_normal(values.shape).astype(np.float32)
        config = DKMConfig(bits=3, iters=3, weight_dtype=rt.get_dtype(dtype))
        out = _dense_step(DKMClusterer.cluster_dense, config, values, dtype, grad)[0]
        want = _dense_step(cluster_dense_wk, config, values, dtype, grad)[0]
        assert np.count_nonzero(out != want) < out.size // 1000


class TestRetiredDenseKnobs:
    """The dense path's chunk size and byte limit are no knobs: each
    retired spelling is refused."""

    def test_limit_is_not_a_config_field(self):
        with pytest.raises(TypeError, match="dense_saved_bytes_limit"):
            DKMConfig(bits=3, dense_saved_bytes_limit=1 << 20)

    def test_cluster_dense_takes_no_row_chunk(self):
        clusterer = DKMClusterer(DKMConfig(bits=2, iters=1))
        with pytest.raises(TypeError, match="row_chunk"):
            clusterer.cluster_dense(_weight_tensor(128), row_chunk=64)
        assert clusterer.state is None

    def test_row_chunk_is_not_a_config_field(self):
        """The retired config-level chunk is refused, and the ``cluster``
        dispatcher takes no chunk keyword."""
        from repro.core.edkm import cluster

        with pytest.raises(TypeError, match="dense_row_chunk"):
            DKMConfig(bits=3, dense_row_chunk=512)
        with pytest.raises(TypeError, match="dense_row_chunk"):
            cluster(
                _weight_tensor(128, requires_grad=True),
                DKMClusterer(DKMConfig(bits=2, iters=1)),
                False,
                dense_row_chunk=64,
            )
