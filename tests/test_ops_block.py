"""``ops.rope`` and ``ops.rms_norm`` against the composites they replaced.

Forward is bit-equal to the oracle for float32 activations (on both numpy
lines: ``mean`` over the last axis is a pairwise reduction); gradients
agree with the oracle to float32 rounding and with finite differences.
"""

import numpy as np
import pytest

import repro.nn as nn
import repro.tensor as rt
from repro.tensor import ops

from tests.gradcheck import check_gradients
from tests.opcount import count_ops
from tests.oracles import rms_norm_composite, rope_composite

HEAD_DIM, MAX_SEQ = 16, 64


def _arr(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)


def _heads_view(values):
    """(B, T, H, hd) values as the non-contiguous (B, H, T, hd) view attention makes."""
    return rt.tensor(values, requires_grad=True).permute(0, 2, 1, 3)


def _bits(tensor):
    return tensor.numpy().tobytes()


def _saved_by(fn):
    """Tensors ``fn()`` hands to the active saved-tensor hook."""
    packed = []

    def pack(tensor):
        packed.append(tensor)
        return tensor

    with rt.saved_tensors_hooks(pack, lambda payload: payload):
        fn()
    return packed


ROPE_CASES = {
    "T=1": ((2, 1, 4, HEAD_DIM), 1.0),
    "T=5": ((2, 5, 4, HEAD_DIM), 1.0),
    "T=max": ((1, MAX_SEQ, 2, HEAD_DIM), 1.0),
    "scaled 1e4": ((2, 7, 4, HEAD_DIM), 1e4),
    "scaled 1e-4": ((2, 7, 4, HEAD_DIM), 1e-4),
}


class TestRope:
    rope = nn.RotaryEmbedding(HEAD_DIM, MAX_SEQ)

    @pytest.mark.parametrize("case", ROPE_CASES)
    @pytest.mark.parametrize("layout", ["permuted view", "contiguous"])
    def test_forward_bit_identical_to_composite(self, case, layout):
        shape, scale = ROPE_CASES[case]
        x = _heads_view(_arr(shape, scale=scale))
        if layout == "contiguous":
            x = x.contiguous()
        assert x.is_contiguous() == (layout == "contiguous")
        assert _bits(self.rope.apply(x)) == _bits(rope_composite(self.rope, x))

    def test_zero_rows_stay_zero(self):
        x = rt.tensor(np.zeros((1, 2, 3, HEAD_DIM), dtype=np.float32))
        assert _bits(self.rope.apply(x)) == _bits(rope_composite(self.rope, x))
        assert not self.rope.apply(x).numpy().any()

    def test_gradient_matches_composite(self):
        values, upstream = _arr((2, 9, 4, HEAD_DIM)), _arr((2, 4, 9, HEAD_DIM), seed=1)
        grads = []
        for apply in (self.rope.apply, lambda x: rope_composite(self.rope, x)):
            leaf = rt.tensor(values, requires_grad=True)
            apply(leaf.permute(0, 2, 1, 3)).backward(upstream)
            grads.append(leaf.grad.numpy())
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-5, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rope = nn.RotaryEmbedding(4, 8)
        mix = rt.tensor(_arr((1, 2, 3, 4), seed=3))  # sum() alone has a constant gradient
        check_gradients(lambda ts: rope.apply(ts[0]) * mix, [_arr((1, 2, 3, 4))])

    def test_saves_nothing_and_is_one_dispatch(self):
        x = _heads_view(_arr((2, 5, 4, HEAD_DIM)))
        with count_ops() as counts:
            saved = _saved_by(lambda: self.rope.apply(x))
        assert saved == []
        assert dict(counts.dispatches) == {"rope": 1}

    def test_16_bit_activation_is_projected_once(self):
        values = rt.tensor(_arr((1, 2, 5, HEAD_DIM)), dtype=rt.bfloat16)
        out = self.rope.apply(values)
        assert out.dtype is rt.bfloat16
        exact = self.rope.apply(values.float()).numpy()  # float32 arithmetic on the same values
        assert _bits(out) == rt.bfloat16.project(exact).tobytes()

    def test_tables_must_span_an_even_last_axis(self):
        def table(*shape):
            return np.ones(shape, np.float32)

        x = rt.tensor(_arr((1, 1, 2, 6)))
        for cos, sin in ((table(2, 3), table(2, 3)), (table(2, 6), table(1, 6))):
            with pytest.raises(ValueError, match="rope tables"):
                ops.rope(x, cos, sin)
        with pytest.raises(ValueError, match="rope tables"):
            ops.rope(rt.tensor(_arr((1, 1, 2, 5))), table(2, 5), table(2, 5))


NORM_CASES = {
    "rows": ((6, 32), 1.0),
    "one row": ((1, 32), 1.0),
    "wide (pairwise blocks)": ((3, 5, 384), 1.0),
    "scaled 1e4": ((4, 7, 128), 1e4),
    "scaled 1e-4": ((4, 7, 128), 1e-4),
}


class TestRmsNorm:
    eps = 1e-5

    @pytest.mark.parametrize("case", NORM_CASES)
    def test_forward_bit_identical_to_composite(self, case):
        shape, scale = NORM_CASES[case]
        x = rt.tensor(_arr(shape, scale=scale))
        weight = rt.tensor(_arr(shape[-1:], seed=1))
        assert _bits(ops.rms_norm(x, weight, self.eps)) == _bits(
            rms_norm_composite(x, weight, self.eps)
        )

    def test_forward_bit_identical_on_a_permuted_view(self):
        x = _heads_view(_arr((2, 5, 4, HEAD_DIM)))
        weight = rt.tensor(_arr((HEAD_DIM,), seed=1))
        assert not x.is_contiguous()
        assert _bits(ops.rms_norm(x, weight, self.eps)) == _bits(
            rms_norm_composite(x, weight, self.eps)
        )

    def test_zero_rows_take_the_eps_path(self):
        values = _arr((4, 32))
        values[1] = 0.0
        x, weight = rt.tensor(values), rt.tensor(_arr((32,), seed=1))
        out = ops.rms_norm(x, weight, self.eps)
        assert _bits(out) == _bits(rms_norm_composite(x, weight, self.eps))
        assert not out.numpy()[1].any() and np.isfinite(out.numpy()).all()

    @pytest.mark.parametrize("shape", [(6, 32), (2, 5, 128)])
    def test_gradients_match_composite(self, shape):
        upstream = _arr(shape, seed=2)
        grads = []
        for norm in (ops.rms_norm, rms_norm_composite):
            x = rt.tensor(_arr(shape, scale=3.0), requires_grad=True)
            weight = rt.tensor(_arr(shape[-1:], seed=1), requires_grad=True)
            norm(x, weight, self.eps).backward(upstream)
            grads.append((x.grad.numpy(), weight.grad.numpy()))
        for ours, oracle in zip(*grads):
            np.testing.assert_allclose(ours, oracle, rtol=1e-5, atol=1e-6)

    def test_gradients_match_finite_differences(self):
        mix = rt.tensor(_arr((3, 4), seed=3))
        check_gradients(
            lambda ts: ops.rms_norm(ts[0], ts[1], self.eps) * mix,
            [_arr((3, 4)), _arr((4,), seed=1)],
        )

    def test_frozen_weight_gets_no_gradient(self):
        x = rt.tensor(_arr((3, 8)), requires_grad=True)
        weight = rt.tensor(_arr((8,), seed=1))
        ops.rms_norm(x, weight, self.eps).sum().backward()
        assert x.grad is not None and weight.grad is None

    def test_saves_input_and_weight_only(self):
        x = rt.tensor(_arr((3, 8)), requires_grad=True)
        weight = rt.tensor(_arr((8,), seed=1), requires_grad=True)
        with count_ops() as counts:
            saved = _saved_by(lambda: ops.rms_norm(x, weight, self.eps))
        assert [id(t) for t in saved] == [id(x), id(weight)]
        assert dict(counts.dispatches) == {"rms_norm": 1}

    def test_16_bit_activation_is_projected_once(self):
        x = rt.tensor(_arr((4, 32)), dtype=rt.bfloat16)
        weight = rt.tensor(_arr((32,), seed=1), dtype=rt.bfloat16)
        out = ops.rms_norm(x, weight, self.eps)
        assert out.dtype is rt.bfloat16
        exact = ops.rms_norm(x.float(), weight.float(), self.eps).numpy()
        assert _bits(out) == rt.bfloat16.project(exact).tobytes()
        # ... where the composite rounded after each of its six ops.
        assert _bits(out) != _bits(rms_norm_composite(x, weight, self.eps))

    def test_float32_activation_over_bf16_weight_is_float32(self):
        x = rt.tensor(_arr((4, 32)))
        weight = rt.tensor(_arr((32,), seed=1), dtype=rt.bfloat16)
        out = ops.rms_norm(x, weight, self.eps)
        assert out.dtype is rt.float32
        assert _bits(out) == _bits(rms_norm_composite(x, weight, self.eps))

    def test_weight_must_match_the_last_axis(self):
        with pytest.raises(ValueError, match="rms_norm weight"):
            ops.rms_norm(rt.tensor(_arr((3, 8))), rt.tensor(_arr((4,))), self.eps)
