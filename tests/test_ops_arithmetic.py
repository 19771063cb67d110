"""Forward values and gradients of elementwise and matmul ops."""

import numpy as np
import pytest

import repro.tensor as rt
from repro.tensor import ops

from tests.gradcheck import check_gradients


def _arr(shape, seed=0, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale + offset).astype(np.float32)


class TestForwardValues:
    def test_add_sub_mul_div(self):
        a, b = rt.tensor([1.0, 2.0]), rt.tensor([3.0, 5.0])
        assert np.allclose((a + b).numpy(), [4, 7])
        assert np.allclose((a - b).numpy(), [-2, -3])
        assert np.allclose((a * b).numpy(), [3, 10])
        assert np.allclose((a / b).numpy(), [1 / 3, 2 / 5])

    def test_scalar_operands(self):
        a = rt.tensor([2.0, 4.0])
        assert np.allclose((a + 1).numpy(), [3, 5])
        assert np.allclose((1 + a).numpy(), [3, 5])
        assert np.allclose((a - 1).numpy(), [1, 3])
        assert np.allclose((10 - a).numpy(), [8, 6])
        assert np.allclose((a * 3).numpy(), [6, 12])
        assert np.allclose((a / 2).numpy(), [1, 2])
        assert np.allclose((8 / a).numpy(), [4, 2])

    def test_neg_pow_abs(self):
        a = rt.tensor([-2.0, 3.0])
        assert np.allclose((-a).numpy(), [2, -3])
        assert np.allclose((a**2).numpy(), [4, 9])
        assert np.allclose(a.abs().numpy(), [2, 3])

    def test_exp_log_sqrt(self):
        a = rt.tensor([1.0, 4.0])
        assert np.allclose(a.exp().numpy(), np.exp([1, 4]), rtol=1e-6)
        assert np.allclose(a.log().numpy(), np.log([1, 4]), rtol=1e-6)
        assert np.allclose(a.sqrt().numpy(), [1, 2])

    def test_clip(self):
        a = rt.tensor([-2.0, 0.5, 3.0])
        assert np.allclose(a.clip(-1, 1).numpy(), [-1, 0.5, 1])
        assert np.allclose(a.clip(low=0).numpy(), [0, 0.5, 3])

    def test_broadcasting(self):
        a = rt.tensor(_arr((3, 1)))
        b = rt.tensor(_arr((1, 4), seed=1))
        assert (a + b).shape == (3, 4)
        assert np.allclose((a + b).numpy(), a.numpy() + b.numpy())

    def test_comparisons_produce_bool(self):
        a, b = rt.tensor([1.0, 2.0]), rt.tensor([2.0, 2.0])
        assert (a < b).dtype is rt.bool_
        assert np.array_equal((a < b).numpy(), [True, False])
        assert np.array_equal((a == b).numpy(), [False, True])
        assert np.array_equal((a >= 2).numpy(), [False, True])

    def test_mixed_device_raises(self):
        a = rt.zeros(2, device="gpu")
        b = rt.zeros(2, device="cpu")
        with pytest.raises(RuntimeError, match="same device"):
            _ = a + b

    def test_dtype_promotion_in_binary_op(self):
        a = rt.tensor(_arr(4), dtype="float16")
        b = rt.tensor(_arr(4, seed=1), dtype="float32")
        assert (a + b).dtype is rt.float32


class TestGradients:
    def test_add_grad(self):
        check_gradients(lambda ts: ts[0] + ts[1], [_arr((2, 3)), _arr((2, 3), 1)])

    def test_add_broadcast_grad(self):
        check_gradients(lambda ts: ts[0] + ts[1], [_arr((2, 3)), _arr((3,), 1)])

    def test_sub_grad(self):
        check_gradients(lambda ts: ts[0] - ts[1], [_arr((2, 2)), _arr((2, 2), 1)])

    def test_mul_grad(self):
        check_gradients(lambda ts: ts[0] * ts[1], [_arr((3,)), _arr((3,), 1)])

    def test_mul_scalar_grad(self):
        check_gradients(lambda ts: ts[0] * 2.5, [_arr((3,))])

    def test_self_multiplication_grad(self):
        check_gradients(lambda ts: ts[0] * ts[0], [_arr((3,))])

    def test_div_grad(self):
        check_gradients(
            lambda ts: ts[0] / ts[1],
            [_arr((3,)), _arr((3,), 1, scale=0.2, offset=2.0)],
        )

    def test_pow_grad(self):
        check_gradients(lambda ts: ts[0] ** 3, [_arr((4,), offset=2.0, scale=0.3)])

    def test_exp_grad(self):
        check_gradients(lambda ts: ts[0].exp(), [_arr((4,), scale=0.5)])

    def test_log_grad(self):
        check_gradients(lambda ts: ts[0].log(), [_arr((4,), scale=0.1, offset=2.0)])

    def test_sqrt_grad(self):
        check_gradients(lambda ts: ts[0].sqrt(), [_arr((4,), scale=0.2, offset=3.0)])

    def test_abs_grad(self):
        check_gradients(lambda ts: ts[0].abs(), [_arr((4,), offset=1.5, scale=0.3)])

    def test_clip_grad_passes_inside_range_only(self):
        a = rt.tensor([-2.0, 0.5, 3.0], requires_grad=True)
        a.clip(-1, 1).sum().backward()
        assert np.array_equal(a.grad.numpy(), [0.0, 1.0, 0.0])

    def test_neg_grad(self):
        check_gradients(lambda ts: -ts[0], [_arr((3,))])

    @pytest.mark.parametrize("frozen", [0, 1])
    @pytest.mark.parametrize("op", [ops.add, ops.sub, ops.mul, ops.div])
    def test_frozen_operand_gets_no_gradient(self, op, frozen):
        # The dense DKM block's `w - c`: the centroids are a constant there.
        grad = _arr((4, 3), 2)

        def grads(requires):
            a = rt.tensor(_arr((4, 1)), requires_grad=requires[0])
            b = rt.tensor(_arr((1, 3), 1, scale=0.2, offset=2.0), requires_grad=requires[1])
            node = op(a, b).grad_fn
            return node.fn.backward(node.ctx, grad)

        both = grads((True, True))
        one = grads((frozen != 0, frozen != 1))
        live = 1 - frozen
        assert one[frozen] is None
        assert one[live].tobytes() == both[live].tobytes()


# ``(B..., K) @ (K, N)`` runs as one gemm over the collapsed leading dims;
# each case is (leaf shapes, how the operands are derived from the leaves).
_COLLAPSED = {
    "3d": ([(4, 3, 5), (5, 2)], lambda a, b: (a, b)),
    "4d_leading_dims": ([(2, 3, 2, 5), (5, 2)], lambda a, b: (a, b)),
    "leading_dims_of_1": ([(1, 1, 3, 5), (5, 2)], lambda a, b: (a, b)),
    "zero_length_batch": ([(0, 3, 5), (5, 2)], lambda a, b: (a, b)),
    "permuted_a": ([(3, 4, 5), (5, 2)], lambda a, b: (a.permute(1, 0, 2), b)),
    "transposed_b": ([(4, 3, 5), (2, 5)], lambda a, b: (a, b.T)),
}


@pytest.fixture
def gemm_shapes(monkeypatch):
    """Operand shapes of every ``np.matmul`` call made during the test."""
    calls = []
    real = np.matmul

    def recording(x, y, *args, **kwargs):
        calls.append((x.shape, y.shape))
        return real(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return calls


class TestMatmul:
    def test_2d_matmul_value(self):
        a, b = _arr((3, 4)), _arr((4, 5), 1)
        out = rt.tensor(a) @ rt.tensor(b)
        assert np.allclose(out.numpy(), a @ b, rtol=1e-5)

    def test_batched_matmul_value(self):
        a, b = _arr((2, 3, 4)), _arr((2, 4, 5), 1)
        out = rt.tensor(a) @ rt.tensor(b)
        assert np.allclose(out.numpy(), a @ b, rtol=1e-5)

    def test_broadcast_batch_matmul(self):
        a, b = _arr((2, 3, 4)), _arr((4, 5), 1)
        out = rt.tensor(a) @ rt.tensor(b)
        assert out.shape == (2, 3, 5)
        assert np.allclose(out.numpy(), a @ b, rtol=1e-5)

    def test_vector_operands(self):
        a, b = _arr((4,)), _arr((4,), 1)
        assert np.allclose(
            ops.matmul(rt.tensor(a), rt.tensor(b)).numpy(), a @ b, rtol=1e-5
        )
        m = _arr((3, 4), 2)
        assert ops.matmul(rt.tensor(m), rt.tensor(b)).shape == (3,)
        assert ops.matmul(rt.tensor(a), rt.tensor(m.T)).shape == (3,)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            _ = rt.zeros(2, 3) @ rt.zeros(4, 5)

    def test_matmul_grad(self):
        check_gradients(
            lambda ts: ts[0] @ ts[1], [_arr((2, 3)), _arr((3, 2), 1)]
        )

    def test_batched_matmul_grad(self):
        check_gradients(
            lambda ts: ts[0] @ ts[1], [_arr((2, 2, 3)), _arr((2, 3, 2), 1)]
        )

    def test_broadcast_matmul_grad(self):
        check_gradients(
            lambda ts: ts[0] @ ts[1], [_arr((2, 2, 3)), _arr((3, 2), 1)]
        )

    @pytest.mark.parametrize("case", sorted(_COLLAPSED))
    def test_collapsed_matches_broadcast(self, case):
        shapes, views = _COLLAPSED[case]
        arrays = [_arr(shape, seed) for seed, shape in enumerate(shapes)]
        a, b = views(*(rt.tensor(x) for x in arrays))
        assert a.ndim > 2 and b.ndim == 2
        expected = np.matmul(a.numpy(), b.numpy())
        out = a @ b
        assert out.shape == expected.shape
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-6, atol=1e-6)
        # float32 central differences of a sum of O(10) carry ~2e-3 of noise.
        check_gradients(lambda ts: ops.matmul(*views(*ts)), arrays, atol=5e-3)

    def test_collapsed_bf16_weight_under_float32_activation(self):
        x, w = _arr((4, 3, 5)), _arr((2, 5), 1)
        a = rt.tensor(x, requires_grad=True)
        b = rt.tensor(w, dtype="bfloat16", requires_grad=True)
        w16 = b.numpy()  # float32-backed values on the bf16 grid
        assert not np.array_equal(w16, w)
        out = a @ b.T
        assert out.dtype is rt.float32
        np.testing.assert_allclose(
            out.numpy(), np.matmul(x, w16.T), rtol=1e-6, atol=1e-6
        )
        out.sum().backward()
        ones = np.ones((4, 3, 2), dtype=np.float32)
        np.testing.assert_allclose(a.grad.numpy(), ones @ w16, rtol=1e-6, atol=1e-6)
        # The weight gradient lands on the weight's own grid.
        assert b.grad.dtype is rt.bfloat16
        np.testing.assert_allclose(
            b.grad.numpy(), x.sum(axis=(0, 1))[None, :].repeat(2, 0), rtol=1e-2
        )
        check_gradients(lambda ts: ts[0] @ b.detach().T, [x], atol=5e-3)

    def test_linear_shape_is_one_gemm_forward_two_backward(self, gemm_shapes):
        x = rt.tensor(_arr((4, 3, 8)), requires_grad=True)
        w = rt.tensor(_arr((6, 8), 1), requires_grad=True)
        out = x @ w.T
        assert gemm_shapes == [((12, 8), (8, 6))]
        del gemm_shapes[:]
        out.sum().backward()
        assert gemm_shapes == [((12, 6), (6, 8)), ((8, 12), (12, 6))]

    def test_nd_by_nd_keeps_the_broadcast(self, gemm_shapes):
        q = rt.tensor(_arr((2, 2, 3, 4)), requires_grad=True)
        k = rt.tensor(_arr((2, 2, 4, 3), 1), requires_grad=True)
        out = q @ k
        assert gemm_shapes == [((2, 2, 3, 4), (2, 2, 4, 3))]
        del gemm_shapes[:]
        out.sum().backward()
        assert gemm_shapes == [
            ((2, 2, 3, 3), (2, 2, 3, 4)),
            ((2, 2, 4, 3), (2, 2, 3, 3)),
        ]

    @pytest.mark.parametrize("b_shape", [(4, 5), (2, 4, 5)], ids=["collapsed", "broadcast"])
    @pytest.mark.parametrize("wanted", [0, 1])
    def test_backward_skips_the_product_nobody_wants(self, gemm_shapes, b_shape, wanted):
        tensors = [rt.tensor(_arr((2, 3, 4))), rt.tensor(_arr(b_shape, 1))]
        tensors[wanted].requires_grad = True
        out = tensors[0] @ tensors[1]
        del gemm_shapes[:]
        out.sum().backward()
        assert len(gemm_shapes) == 1
        assert tensors[wanted].grad.shape == tensors[wanted].shape
        assert tensors[1 - wanted].grad is None


def _signed_zero_operands(a_shape, b_shape, seed=0):
    """Operands whose products hold both zeros, infinities and NaN."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(a_shape).astype(np.float32)
    b = rng.standard_normal(b_shape).astype(np.float32)
    a.reshape(-1)[::3] = -0.0
    a.reshape(-1)[1::5] = 0.0
    b.reshape(-1)[::4] = -0.0
    b.reshape(-1)[1] = np.inf
    a.reshape(-1)[-1] = np.nan
    return a, b


# (a, b) shapes whose contracted dimension is 1: a plain outer product,
# the dense DKM map's (k, 1) x (1, |W|), an N-D activation times a 2-D
# weight (one collapsed product) and a batch broadcast.
_OUTER_SHAPES = [((5, 1), (1, 7)), ((8, 1), (1, 4097)), ((2, 3, 1), (1, 6)), ((2, 4, 1), (1, 1, 5))]


class TestOuterProduct:
    """A contracted dimension of 1 is a broadcast multiply, not a BLAS call."""

    @pytest.mark.parametrize("a_shape,b_shape", _OUTER_SHAPES)
    def test_forward_is_the_elementwise_product(self, gemm_shapes, a_shape, b_shape):
        a, b = _signed_zero_operands(a_shape, b_shape)
        with np.errstate(invalid="ignore"):
            out = (rt.tensor(a) @ rt.tensor(b)).numpy()
            product = a * b
            blas = np.matmul(a, b)
        assert gemm_shapes == [(a.shape, b.shape)]  # the reference call above only
        assert out.shape == blas.shape
        assert out.tobytes() == product.tobytes()
        # np.matmul agrees up to the sign of a zero product: its beta = 0
        # accumulate turns -0.0 into +0.0.
        assert np.array_equal(out, blas, equal_nan=True)
        differ = out.view(np.uint32) != blas.view(np.uint32)
        assert (out[differ] == 0).all() and np.signbit(out[differ]).all()

    @pytest.mark.parametrize("y_shape", [(5, 1), (300, 1), (3, 5, 1)])
    def test_backward_products_are_elementwise(self, gemm_shapes, y_shape):
        """A row times a column: both gradients are outer products."""
        m = y_shape[-2]
        x_np, y_np = _signed_zero_operands((1, m), y_shape, seed=1)
        x_np[np.isnan(x_np)] = 1.0
        y_np[np.isinf(y_np)] = 2.0
        x = rt.tensor(x_np, requires_grad=True)
        y = rt.tensor(y_np, requires_grad=True)
        out = x @ y  # (..., 1, 1)
        grad = np.random.default_rng(2).standard_normal(out.shape).astype(np.float32)
        grad.reshape(-1)[::2] = -0.0
        node = out.grad_fn
        del gemm_shapes[:]
        gx, gy = node.fn.backward(node.ctx, grad)
        assert gemm_shapes == []
        want_gx = grad * np.swapaxes(y_np, -1, -2)
        if want_gx.ndim > 2:  # the batch np.matmul broadcast x over
            want_gx = want_gx.sum(axis=0)
        assert gx.tobytes() == want_gx.tobytes()
        assert gy.tobytes() == (x_np.T * grad).tobytes()

    def test_dense_map_weight_gradient(self, gemm_shapes):
        """The ``(1, k) @ (k, |W|)`` of ``cluster_dense``: its map gradient
        is ``centroids.T * grad``, with no gemm."""
        k, n = 8, 4097
        c, g = _signed_zero_operands((1, k), (1, n), seed=3)
        c[0, -1] = 0.5  # no NaN in the centroids
        g.reshape(-1)[1] = 2.0
        attention = rt.tensor(np.abs(_arr((k, n), 4)), requires_grad=True)
        out = rt.tensor(c) @ attention
        del gemm_shapes[:]
        node = out.grad_fn
        ga, gb = node.fn.backward(node.ctx, g)
        assert ga is None and gemm_shapes == []
        assert gb.flags.c_contiguous
        assert gb.tobytes() == (c.T * g).tobytes()
