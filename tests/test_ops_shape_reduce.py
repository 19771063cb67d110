"""Forward values and gradients of shape ops and reductions."""

import numpy as np
import pytest

import repro.tensor as rt
from repro.tensor import ops

from tests.gradcheck import check_gradients


def _arr(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(
        np.float32
    )


class TestReductions:
    def test_sum_all(self):
        a = _arr((3, 4))
        assert rt.tensor(a).sum().item() == pytest.approx(a.sum(), rel=1e-5)

    def test_sum_dim(self):
        a = _arr((3, 4))
        out = rt.tensor(a).sum(dim=1)
        assert out.shape == (3,)
        assert np.allclose(out.numpy(), a.sum(axis=1), rtol=1e-5)

    def test_sum_keepdim(self):
        assert rt.tensor(_arr((3, 4))).sum(dim=0, keepdim=True).shape == (1, 4)

    def test_sum_negative_dim(self):
        a = _arr((3, 4))
        assert np.allclose(
            rt.tensor(a).sum(dim=-1).numpy(), a.sum(axis=-1), rtol=1e-5
        )

    def test_mean(self):
        a = _arr((3, 4))
        assert rt.tensor(a).mean().item() == pytest.approx(a.mean(), rel=1e-5)
        assert np.allclose(
            rt.tensor(a).mean(dim=0).numpy(), a.mean(axis=0), rtol=1e-5
        )

    def test_max_min(self):
        a = _arr((3, 4))
        assert rt.tensor(a).max().item() == pytest.approx(a.max())
        assert rt.tensor(a).min().item() == pytest.approx(a.min())
        assert np.allclose(rt.tensor(a).max(dim=1).numpy(), a.max(axis=1))

    def test_argmax_argmin(self):
        a = _arr((3, 4))
        assert rt.tensor(a).argmax().item() == a.argmax()
        assert np.array_equal(rt.tensor(a).argmax(dim=1).numpy(), a.argmax(axis=1))
        assert np.array_equal(rt.tensor(a).argmin(dim=0).numpy(), a.argmin(axis=0))

    def test_sum_grad(self):
        check_gradients(lambda ts: ts[0].sum(), [_arr((2, 3))])
        check_gradients(lambda ts: ts[0].sum(dim=1), [_arr((2, 3))])

    def test_mean_grad(self):
        check_gradients(lambda ts: ts[0].mean(), [_arr((2, 3))])
        check_gradients(lambda ts: ts[0].mean(dim=0, keepdim=True), [_arr((2, 3))])

    def test_max_grad_routes_to_argmax(self):
        a = rt.tensor([1.0, 5.0, 2.0], requires_grad=True)
        a.max().backward()
        assert np.array_equal(a.grad.numpy(), [0.0, 1.0, 0.0])

    def test_max_dim_grad(self):
        check_gradients(lambda ts: ts[0].max(dim=1), [_arr((3, 4))])

    def test_min_dim_grad(self):
        check_gradients(lambda ts: ts[0].min(dim=0), [_arr((3, 4))])


class TestShapeOpGradients:
    def test_view_grad(self):
        check_gradients(lambda ts: ts[0].view(6) * rt.tensor(_arr((6,), 9)), [_arr((2, 3))])

    def test_transpose_grad(self):
        check_gradients(
            lambda ts: ts[0].transpose(0, 1) @ ts[1], [_arr((3, 2)), _arr((3, 2), 1)]
        )

    def test_permute_grad(self):
        check_gradients(
            lambda ts: ts[0].permute(1, 2, 0).reshape(-1) * 2.0, [_arr((2, 3, 2))]
        )

    def test_expand_grad_accumulates(self):
        a = rt.tensor(_arr((1, 3)), requires_grad=True)
        a.expand(4, 3).sum().backward()
        assert np.allclose(a.grad.numpy(), np.full((1, 3), 4.0))

    def test_slice_grad_scatter(self):
        a = rt.tensor(_arr((4, 4)), requires_grad=True)
        a[1:3, ::2].sum().backward()
        expected = np.zeros((4, 4), dtype=np.float32)
        expected[1:3, ::2] = 1.0
        assert np.array_equal(a.grad.numpy(), expected)

    def test_cat_values_and_grad(self):
        a, b = _arr((2, 3)), _arr((3, 3), 1)
        out = ops.cat([rt.tensor(a), rt.tensor(b)], dim=0)
        assert np.allclose(out.numpy(), np.concatenate([a, b], axis=0))
        check_gradients(
            lambda ts: ops.cat([ts[0], ts[1]], dim=0), [a, b]
        )

    def test_cat_dim1(self):
        a, b = _arr((2, 3)), _arr((2, 2), 1)
        out = ops.cat([rt.tensor(a), rt.tensor(b)], dim=1)
        assert out.shape == (2, 5)

    def test_stack(self):
        a, b = _arr((2, 3)), _arr((2, 3), 1)
        out = ops.stack([rt.tensor(a), rt.tensor(b)], dim=0)
        assert out.shape == (2, 2, 3)
        assert np.allclose(out.numpy(), np.stack([a, b]))

    def test_split_roundtrip(self):
        t = rt.tensor(_arr((7, 2)))
        chunks = ops.split(t, 3, dim=0)
        assert [c.shape[0] for c in chunks] == [3, 3, 1]
        rebuilt = ops.cat(chunks, dim=0)
        assert np.array_equal(rebuilt.numpy(), t.numpy())

    def test_contiguous_grad(self):
        check_gradients(
            lambda ts: ts[0].transpose(0, 1).contiguous() * 3.0, [_arr((2, 3))]
        )

    def test_view_shape_validation(self):
        with pytest.raises(ValueError):
            rt.zeros(6).view(4)
        with pytest.raises(ValueError):
            rt.zeros(6).view(-1, -1)

    def test_grad_through_view_mutation_chain(self):
        # Gradient flows correctly through nested views.
        a = rt.tensor(_arr((2, 2, 2)), requires_grad=True)
        out = a.view(8).view(2, 4).transpose(0, 1).reshape(-1)
        (out * out).sum().backward()
        assert np.allclose(a.grad.numpy(), 2 * a.numpy(), rtol=1e-5)


# Each op taking a dim, applied to a (2, 3) tensor.  `permute` pairs the bad
# dim with the axis it used to wrap onto's partner, so the old `dim % ndim`
# would have returned a valid permutation rather than raised.
_DIM_OPS = {
    "softmax": lambda t, d: ops.softmax(t, dim=d),
    "log_softmax": lambda t, d: ops.log_softmax(t, dim=d),
    "take_along_dim": lambda t, d: ops.take_along_dim(
        t, rt.tensor(np.zeros((2, 3), dtype=np.int64)), dim=d
    ),
    "transpose_dim0": lambda t, d: ops.transpose(t, d, 1),
    "transpose_dim1": lambda t, d: ops.transpose(t, 0, d),
    "permute": lambda t, d: ops.permute(t, (d, 1 - d % 2)),
    "sum": lambda t, d: ops.sum_(t, dim=d),
    "mean": lambda t, d: ops.mean(t, dim=d),
    "max": lambda t, d: ops.max_(t, dim=d),
    "min": lambda t, d: ops.min_(t, dim=d),
    "split": lambda t, d: ops.split(t, 1, dim=d),
    "cat": lambda t, d: ops.cat([t, t], dim=d),
}


class TestDimOutOfRange:
    @pytest.mark.parametrize("dim", [2, -3])
    @pytest.mark.parametrize("name", sorted(_DIM_OPS))
    def test_raises_instead_of_wrapping(self, name, dim):
        t = rt.tensor(_arr((2, 3)))
        match = rf"dimension out of range \(expected \[-2, 1\], got {dim}\)"
        with pytest.raises(IndexError, match=match):
            _DIM_OPS[name](t, dim)

    @pytest.mark.parametrize("dim", [1, -1, 0, -2])
    @pytest.mark.parametrize("name", sorted(_DIM_OPS))
    def test_in_range_dims_still_work(self, name, dim):
        _DIM_OPS[name](rt.tensor(_arr((2, 3))), dim)

    def test_tensor_methods_share_the_check(self):
        t = rt.tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        with pytest.raises(IndexError):
            t.sum(dim=2)
        with pytest.raises(IndexError):
            t.transpose(0, 2)
