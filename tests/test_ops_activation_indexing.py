"""Forward values and gradients of activations and indexing ops."""

import numpy as np
import pytest
import scipy.special

import repro.tensor as rt
from repro.core.dkm import default_temperature, init_centroids_quantile
from repro.tensor import ops, pairwise
from repro.tensor.ops.activation import _stable_sigmoid

from tests.gradcheck import check_gradients
from tests.oracles import softmax_backward_rowwise, softmax_rowwise


def _arr(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(
        np.float32
    )


def _masked_sigmoid(x):
    """The branch-indexed logistic ``_stable_sigmoid`` replaced; the oracle."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    e = np.exp(x[~positive])
    out[~positive] = e / (1.0 + e)
    return out


_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 88.7, -88.7, 89.0, -89.0,
                  104.0, -104.0, 1e-30, -1e-30, 709.0, -709.0, 746.0, -746.0]  # fmt: skip


class TestStableSigmoid:
    """Whole-array ``_stable_sigmoid`` is byte-equal to the masked version."""

    @staticmethod
    def _assert_bytes_equal(x):
        # Underflow is expected far out on the tails; anything else is a bug.
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            got = _stable_sigmoid(x)
        with np.errstate(all="ignore"):
            want = _masked_sigmoid(x)
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype == x.dtype
        assert got.shape == want.shape == x.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges_and_bulk(self, dtype):
        bulk = (np.random.default_rng(0).standard_normal((16, 40, 64)) * 6).astype(dtype)
        with np.errstate(over="ignore"):  # 709 and 746 are inf in float32, on purpose
            edges = np.array(_SIGMOID_EDGES, dtype=dtype)
        for n in (1, 3, 17):  # vector-width remainders take the scalar tail
            self._assert_bytes_equal(np.tile(edges, n))
        self._assert_bytes_equal(bulk)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layouts(self, dtype):
        base = (np.random.default_rng(1).standard_normal((12, 10)) * 30).astype(dtype)
        before = base.tobytes()
        views = (np.asarray(base[0, 0]), base[:0], base.T, base[::2, 1::3], base[::-1], base[3])
        for x in views:
            self._assert_bytes_equal(x)
        assert views[0].ndim == 0 and views[1].size == 0
        assert base.tobytes() == before  # input never written

    def test_silu_forward_and_backward_bytes(self):
        x = (np.random.default_rng(2).standard_normal((4, 33)) * 20).astype(np.float32)
        a = rt.tensor(x, requires_grad=True)
        out = ops.silu(a)
        out.backward(np.ones_like(x))
        sig = _masked_sigmoid(x)
        assert out.numpy().tobytes() == (x * sig).tobytes()
        want_grad = (sig + x * sig * (1.0 - sig)).astype(np.float32)
        assert a.grad.numpy().tobytes() == want_grad.tobytes()


class TestActivations:
    def test_softmax_matches_scipy(self):
        a = _arr((3, 5))
        out = ops.softmax(rt.tensor(a), dim=1)
        assert np.allclose(out.numpy(), scipy.special.softmax(a, axis=1), rtol=1e-5)

    def test_softmax_rows_sum_to_one(self):
        out = ops.softmax(rt.tensor(_arr((4, 7))), dim=-1)
        assert np.allclose(out.numpy().sum(axis=-1), 1.0, rtol=1e-5)

    def test_softmax_stability_large_logits(self):
        out = ops.softmax(rt.tensor([[1000.0, 1000.0]]), dim=1)
        assert np.allclose(out.numpy(), [[0.5, 0.5]])

    def test_log_softmax(self):
        a = _arr((3, 5))
        out = ops.log_softmax(rt.tensor(a), dim=1)
        assert np.allclose(
            out.numpy(), scipy.special.log_softmax(a, axis=1), rtol=1e-5
        )

    def test_relu(self):
        a = rt.tensor([-1.0, 0.0, 2.0])
        assert np.array_equal(ops.relu(a).numpy(), [0.0, 0.0, 2.0])

    def test_sigmoid_tanh(self):
        a = _arr((5,))
        assert np.allclose(
            ops.sigmoid(rt.tensor(a)).numpy(), scipy.special.expit(a), rtol=1e-5
        )
        assert np.allclose(ops.tanh(rt.tensor(a)).numpy(), np.tanh(a), rtol=1e-5)

    def test_silu(self):
        a = _arr((5,))
        assert np.allclose(
            ops.silu(rt.tensor(a)).numpy(), a * scipy.special.expit(a), rtol=1e-5
        )

    def test_sigmoid_extreme_values_stable(self):
        out = ops.sigmoid(rt.tensor([-100.0, 100.0])).numpy()
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-8)
        assert out[1] == pytest.approx(1.0, abs=1e-8)

    def test_softmax_grad(self):
        check_gradients(
            lambda ts: ops.softmax(ts[0], dim=1) * rt.tensor(_arr((2, 4), 9)),
            [_arr((2, 4))],
        )

    def test_log_softmax_grad(self):
        check_gradients(
            lambda ts: ops.log_softmax(ts[0], dim=0) * rt.tensor(_arr((3, 2), 9)),
            [_arr((3, 2))],
        )

    def test_silu_grad(self):
        check_gradients(lambda ts: ops.silu(ts[0]), [_arr((5,))])

    def test_gelu_grad(self):
        check_gradients(lambda ts: ops.gelu(ts[0]), [_arr((5,))])

    def test_sigmoid_grad(self):
        check_gradients(lambda ts: ops.sigmoid(ts[0]), [_arr((5,))])

    def test_tanh_grad(self):
        check_gradients(lambda ts: ops.tanh(ts[0]), [_arr((5,))])

    def test_relu_grad(self):
        a = rt.tensor([-1.0, 2.0], requires_grad=True)
        ops.relu(a).sum().backward()
        assert np.array_equal(a.grad.numpy(), [0.0, 1.0])


# Every branch of the pairwise order (sequential < 8, lanes + tail to 128,
# halves above), and row counts either side of the softmax gate threshold
# and past one moved block.
_AXIS_LENGTHS = [*range(1, 18), 31, 64, 127, 128, 129, 200, 257]
_ROW_COUNTS = sorted(
    {1, 9000} | {rows + d for _, rows in pairwise.SOFTMAX_MIN_ROWS for d in (-1, 0)}
)
_SOFTMAX_CASES = [(r, n) for n in _AXIS_LENGTHS for r in _ROW_COUNTS if r * n <= 300_000]


def _assert_softmax_matches_oracle(a, dim=-1, grad=None):
    """Forward and backward of ``ops.softmax`` on ``a`` equal the row-wise oracle's bytes."""
    with np.errstate(all="ignore"):  # masked and NaN rows warn on both paths alike
        out = ops.softmax(a, dim=dim)
        want = a.dtype.project(softmax_rowwise(a._compute(), dim))
        y = out._compute()
        if grad is None:
            grad = np.random.default_rng(y.size).standard_normal(y.shape).astype(np.float32)
        node = out.grad_fn
        (got,) = node.fn.backward(node.ctx, grad)
        want_grad = softmax_backward_rowwise(grad, y, dim)
    assert out.numpy().tobytes() == want.tobytes()
    assert got.dtype == want_grad.dtype
    assert got.tobytes() == want_grad.tobytes()


class TestSoftmaxEqualsRowwiseOracle:
    """The moved layout changes speed only: every byte is the row-wise one's."""

    @pytest.mark.parametrize("rows,n", _SOFTMAX_CASES)
    def test_lengths_and_row_counts(self, rows, n):
        a = rt.tensor(_arr((rows, n), seed=n, scale=4.0), requires_grad=True)
        _assert_softmax_matches_oracle(a)

    @pytest.mark.parametrize("n", [4, 8, 16])  # 2, 3 and 4 bits
    @pytest.mark.parametrize("rows", [16384, 30848, 32768])
    def test_dense_map_shapes(self, rows, n):
        w = rt.bfloat16.project(_arr(rows, seed=rows, scale=0.05))
        c = init_centroids_quantile(w, n)
        sq = np.square(w.reshape(-1, 1) - c.reshape(1, -1))
        logits = sq * np.float32(-1.0 / default_temperature(w, n))
        _assert_softmax_matches_oracle(rt.tensor(logits, requires_grad=True), dim=1)

    @pytest.mark.parametrize("fill", [-1e9, -np.inf])
    @pytest.mark.parametrize("shape", [(16, 8, 23, 23), (2, 4, 10, 10), (1, 1, 5, 5)])
    def test_causal_attention(self, shape, fill):
        scores = _arr(shape, seed=3, scale=2.0)
        scores[..., ops.causal_mask(shape[-1])] = fill
        _assert_softmax_matches_oracle(rt.tensor(scores, requires_grad=True))

    @pytest.mark.parametrize("rows", [20, 1500, 9000])
    def test_inf_and_nan_entries(self, rows):
        x = _arr((rows, 8), seed=4, scale=3.0)
        x[0, :] = -np.inf  # a fully masked row: NaN throughout
        x[1, ::2] = -np.inf
        x[2, 3] = np.nan
        x[3, 5] = np.inf
        _assert_softmax_matches_oracle(rt.tensor(x, requires_grad=True))

    @pytest.mark.parametrize("rows", [20, 1500, 9000])
    def test_gradient_rows_of_negative_zero(self, rows):
        # add.reduce starts from +0.0, so a row of -0.0 products sums to +0.0.
        grad = _arr((rows, 8), seed=5)
        grad[::3] = -0.0
        _assert_softmax_matches_oracle(rt.tensor(_arr((rows, 8)), requires_grad=True), grad=grad)

    @pytest.mark.parametrize("rows", [20, 1500, 9000])
    def test_non_contiguous_views_and_gradients(self, rows):
        base = rt.tensor(_arr((8, rows), seed=6, scale=3.0), requires_grad=True)
        grad_t = _arr((8, rows), seed=7).T  # a transposed upstream gradient
        _assert_softmax_matches_oracle(base.transpose(0, 1), grad=grad_t)
        base4 = rt.tensor(_arr((4, 12, 8, 6), seed=8), requires_grad=True)
        _assert_softmax_matches_oracle(base4.permute(0, 2, 1, 3))
        _assert_softmax_matches_oracle(base4.permute(0, 2, 3, 1), dim=2)

    @pytest.mark.parametrize("dtype", [rt.float16, rt.bfloat16, rt.float64])
    @pytest.mark.parametrize("rows", [20, 1500, 9000])
    def test_other_activation_dtypes(self, dtype, rows):
        a = rt.tensor(_arr((rows, 8), seed=9, scale=3.0), dtype=dtype, requires_grad=True)
        grad = np.random.default_rng(10).standard_normal((rows, 8)).astype(dtype.np_compute)
        _assert_softmax_matches_oracle(a, grad=grad)

    def test_decode_scores_keep_the_rowwise_path(self):
        # (groups, heads, new tokens, cached + new): a few dozen rows.
        decode = np.zeros((14, 4, 1, 40), dtype=np.float32)
        assert not pairwise._moves(decode, 3)
        assert pairwise._moves(np.zeros((16, 8, 23, 23), np.float32), 3)
        assert pairwise._moves(np.zeros((32768, 8), np.float32), 1)
        # Not the last axis, not contiguous, or a float16 array: row-wise.
        assert not pairwise._moves(np.zeros((8, 32768), np.float32), 0)
        assert not pairwise._moves(np.zeros((8, 32768), np.float32).T, 1)
        assert not pairwise._moves(np.zeros((32768, 8), np.float16), 1)

    def test_stable_softmax_leaves_its_input_alone(self):
        x = _arr((1500, 8), seed=11)
        before = x.tobytes()
        assert pairwise.stable_softmax(x).tobytes() == softmax_rowwise(x, -1).tobytes()
        assert x.tobytes() == before


# Every k that DKMConfig allows, and column counts from one to several
# cache-sized rows.
_DOWN_ROWS_LENGTHS = [n for n in _AXIS_LENGTHS if n <= pairwise.DOWN_ROWS_MAX_N] + [256]
_DOWN_ROWS_CASES = [
    (n, m) for n in _DOWN_ROWS_LENGTHS for m in (1, 7, 1500, 9000) if n * m <= 600_000
]


def _assert_softmax_down_rows_matches_oracle(a, grad=None):
    """``ops.softmax(a, dim=0)`` of a C-contiguous ``(n, m)`` ``a``, forward
    and backward, equals the row-wise oracle on its C-contiguous transpose."""
    with np.errstate(all="ignore"):
        out = ops.softmax(a, dim=0)
        want = a.dtype.project(softmax_rowwise(np.ascontiguousarray(a._compute().T), -1))
        y = out._compute()
        if grad is None:
            grad = np.random.default_rng(y.size).standard_normal(y.shape).astype(np.float32)
        node = out.grad_fn
        (got,) = node.fn.backward(node.ctx, grad)
        want_grad = softmax_backward_rowwise(
            np.ascontiguousarray(grad.T), np.ascontiguousarray(y.T), -1
        )
    assert out.numpy().tobytes() == np.ascontiguousarray(want.T).tobytes()
    assert got.dtype == want_grad.dtype
    assert got.tobytes() == np.ascontiguousarray(want_grad.T).tobytes()


class TestSoftmaxDownRowsEqualsTransposedOracle:
    """Axis 0 of a C-contiguous ``(n, m)`` array -- the ``(k, |W|)`` dense
    map -- is reduced down its ``n`` rows in place: every byte is the
    row-wise one's of the ``(m, n)`` array the map used to be."""

    @pytest.mark.parametrize("n,m", _DOWN_ROWS_CASES)
    def test_lengths_and_column_counts(self, n, m):
        a = rt.tensor(_arr((n, m), seed=n, scale=4.0), requires_grad=True)
        _assert_softmax_down_rows_matches_oracle(a)

    @pytest.mark.parametrize("k", [2, 8, 16, 256])  # 1, 3, 4 and 8 bits
    @pytest.mark.parametrize("size", [8193, 32768])
    def test_dense_map_shapes(self, size, k):
        w = rt.bfloat16.project(_arr(size, seed=size, scale=0.05))
        c = init_centroids_quantile(w, k)
        sq = np.square(w.reshape(1, -1) - c.reshape(-1, 1))
        logits = sq * np.float32(-1.0 / default_temperature(w, k))
        _assert_softmax_down_rows_matches_oracle(rt.tensor(logits, requires_grad=True))

    @pytest.mark.parametrize("m", [20, 1500, 9000])
    def test_inf_and_nan_entries(self, m):
        x = _arr((m, 8), seed=4, scale=3.0)
        x[0, :] = -np.inf  # a fully masked column: NaN throughout
        x[1, ::2] = -np.inf
        x[2, 3] = np.nan
        x[3, 5] = np.inf
        _assert_softmax_down_rows_matches_oracle(rt.tensor(x.T.copy(), requires_grad=True))

    @pytest.mark.parametrize("m", [20, 1500, 9000])
    def test_gradient_columns_of_negative_zero(self, m):
        # add.reduce starts from +0.0, so a column of -0.0 products sums to +0.0.
        grad = _arr((8, m), seed=5)
        grad[:, ::3] = -0.0
        a = rt.tensor(_arr((8, m)), requires_grad=True)
        _assert_softmax_down_rows_matches_oracle(a, grad=grad)

    @pytest.mark.parametrize("dtype", [rt.float16, rt.bfloat16, rt.float64])
    def test_other_activation_dtypes(self, dtype):
        a = rt.tensor(_arr((8, 1500), seed=9, scale=3.0), dtype=dtype, requires_grad=True)
        grad = np.random.default_rng(10).standard_normal((8, 1500)).astype(dtype.np_compute)
        _assert_softmax_down_rows_matches_oracle(a, grad=grad)

    def test_past_the_longest_k_numpy_reduces_axis_0(self):
        x = _arr((pairwise.DOWN_ROWS_MAX_N + 1, 40), seed=12)
        assert pairwise._down_rows(x[:-1], 0) and not pairwise._down_rows(x, 0)
        want = softmax_rowwise(x, 0)
        assert ops.softmax(rt.tensor(x), dim=0).numpy().tobytes() == want.tobytes()

    def test_the_rule_reads_the_array_alone(self):
        x = np.zeros((8, 32768), np.float32)
        assert pairwise._down_rows(x, 0)
        assert not pairwise._down_rows(x, 1)
        assert not pairwise._down_rows(np.asfortranarray(x), 0)  # not C-contiguous
        assert not pairwise._down_rows(x[:, ::2], 0)
        assert not pairwise._down_rows(x.astype(np.float16), 0)
        assert not pairwise._down_rows(x.reshape(8, 2, -1), 0)  # not 2-D
        assert not pairwise._down_rows(x[:0], 0)


class TestIndexing:
    def test_index_select_values(self):
        w = _arr((6, 3))
        idx = rt.tensor(np.array([0, 2, 2, 5]))
        out = ops.index_select(rt.tensor(w), idx)
        assert np.array_equal(out.numpy(), w[[0, 2, 2, 5]])

    def test_index_select_2d_indices(self):
        w = _arr((6, 3))
        idx = rt.tensor(np.array([[0, 1], [2, 3]]))
        out = ops.embedding(rt.tensor(w), idx)
        assert out.shape == (2, 2, 3)

    def test_index_select_grad_accumulates_duplicates(self):
        w = rt.tensor(_arr((4, 2)), requires_grad=True)
        idx = rt.tensor(np.array([1, 1, 3]))
        ops.index_select(w, idx).sum().backward()
        expected = np.zeros((4, 2), dtype=np.float32)
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.array_equal(w.grad.numpy(), expected)

    def test_index_select_bounds_check(self):
        w = rt.tensor(_arr((4, 2)))
        with pytest.raises(IndexError):
            ops.index_select(w, rt.tensor(np.array([4])))

    def test_index_select_rejects_float_indices(self):
        with pytest.raises(TypeError):
            ops.index_select(rt.tensor(_arr((4, 2))), rt.tensor([0.0]))

    def test_take_along_dim(self):
        a = _arr((3, 5))
        idx = np.array([[1], [0], [4]])
        out = ops.take_along_dim(rt.tensor(a), rt.tensor(idx), dim=1)
        assert np.array_equal(out.numpy(), np.take_along_axis(a, idx, axis=1))

    def test_take_along_dim_grad(self):
        a = rt.tensor(_arr((2, 3)), requires_grad=True)
        idx = rt.tensor(np.array([[0, 0], [2, 1]]))
        ops.take_along_dim(a, idx, dim=1).sum().backward()
        expected = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0]], dtype=np.float32)
        assert np.array_equal(a.grad.numpy(), expected)

    def test_masked_fill(self):
        a = rt.tensor(_arr((2, 2)))
        mask = np.array([[True, False], [False, True]])
        out = ops.masked_fill(a, mask, -9.0)
        assert out.numpy()[0, 0] == -9.0
        assert out.numpy()[0, 1] == a.numpy()[0, 1]

    def test_masked_fill_grad_blocked_by_mask(self):
        a = rt.tensor(_arr((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, False]])
        ops.masked_fill(a, mask, 0.0).sum().backward()
        assert a.grad.numpy()[0, 0] == 0.0
        assert a.grad.numpy()[1, 1] == 1.0

    def test_where(self):
        a, b = rt.tensor([1.0, 2.0]), rt.tensor([10.0, 20.0])
        cond = np.array([True, False])
        assert np.array_equal(ops.where(cond, a, b).numpy(), [1.0, 20.0])

    def test_where_grad(self):
        a = rt.tensor([1.0, 2.0], requires_grad=True)
        b = rt.tensor([10.0, 20.0], requires_grad=True)
        cond = np.array([True, False])
        ops.where(cond, a, b).sum().backward()
        assert np.array_equal(a.grad.numpy(), [1.0, 0.0])
        assert np.array_equal(b.grad.numpy(), [0.0, 1.0])

    @pytest.mark.parametrize("frozen", [0, 1])
    def test_where_skips_the_gradient_of_a_frozen_operand(self, frozen):
        cond = np.array([[True, False, True]] * 4)
        grad = _arr((4, 3), seed=2)

        def grads(requires):
            a = rt.tensor(_arr((4, 3)), requires_grad=requires[0])
            b = rt.tensor(_arr((1, 3), seed=1), requires_grad=requires[1])
            node = ops.where(cond, a, b).grad_fn
            return node.fn.backward(node.ctx, grad)

        both = grads((True, True))
        one = grads((frozen != 0, frozen != 1))
        live = 1 - frozen
        assert one[frozen] is None
        assert one[live].tobytes() == both[live].tobytes()

    def test_one_hot(self):
        out = ops.one_hot(rt.tensor(np.array([0, 2])), num_classes=3)
        assert np.array_equal(out.numpy(), [[1, 0, 0], [0, 0, 1]])

    def test_causal_mask(self):
        mask = ops.causal_mask(3)
        assert np.array_equal(
            mask, [[False, True, True], [False, False, True], [False, False, False]]
        )
