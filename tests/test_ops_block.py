"""``ops.rope``, ``ops.rms_norm``, ``ops.swiglu`` and
``ops.causal_attention`` against the composites they replaced.

Forward is bit-equal to the oracle for float32 activations (on both numpy
lines: ``mean`` over the last axis is a pairwise reduction); RoPE and
RMSNorm gradients agree with the oracle to float32 rounding and with finite
differences.  SwiGLU rebuilds its oracle's intermediates in backward with
the same numpy calls, and so does causal attention: the output and all
three gradients of each are byte-equal at every dtype.
"""

import contextlib
import warnings

import numpy as np
import pytest

import repro.nn as nn
import repro.tensor as rt
from repro.core import EDKMConfig, SavedTensorPipeline
from repro.distributed import LearnerGroup
from repro.tensor import ops
from repro.tensor.autograd import no_grad
from repro.tensor.dtype import promote
from repro.tensor.ops.activation import silu_gate

from tests.gradcheck import check_gradients
from tests.opcount import count_ops
from tests.oracles import (
    attention_composite,
    rms_norm_composite,
    rope_composite,
    silu_gated_linear_composite,
    swiglu_composite,
)

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
            x = rt.tensor(x.numpy())
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
        # float32 arithmetic on the same values
        exact = self.rope.apply(values.cast(rt.float32)).numpy()
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
        exact = ops.rms_norm(x.cast(rt.float32), weight.cast(rt.float32), self.eps).numpy()
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


class TestSwiGLU:
    """``silu(h @ W_g.T) * (h @ W_u.T)`` as one op and as the gate's
    ``MatMul`` feeding a ``SiluGatedLinear``, and as the ``MatMul``,
    ``Silu``, ``MatMul`` and ``Mul`` chain.

    ``h`` is an op's output, as the MLP's normed input is: a leaf ``h``
    would accumulate its two readers' gradients one at a time, rounding a
    16-bit sum twice where the engine sums a node's once.
    """

    IN, OUT = 8, 12
    LEADS = {"3-D": (2, 5), "2-D": (7,)}
    COMPOSITES = {
        "gate MatMul + SiluGatedLinear": swiglu_composite,
        "MatMul + Silu + MatMul + Mul": lambda h, w_gate, w_up: silu_gated_linear_composite(
            h, w_up, h @ w_gate.T
        ),
    }

    def _leaves(self, dtype, layout, lead, device, trained):
        """``(leaves, inputs)``: ``h`` is a view of its leaf and the strided
        weights are transposes of ``(in, out)`` leaves; ``trained`` names the
        inputs that require grad."""
        rng = np.random.default_rng(11)

        def leaf(shape, name):
            values = rng.standard_normal(shape) * 2.0
            return rt.Tensor.from_numpy(
                values, dtype=dtype, device=device, requires_grad=name in trained
            )

        if layout == "contiguous":
            h = leaf(lead + (self.IN,), "h")
            weights = [leaf((self.OUT, self.IN), name) for name in ("gate", "up")]
            return [h] + weights, [h.reshape(h.shape)] + weights
        h = leaf(lead + (2 * self.IN,), "h")
        weights = [leaf((self.IN, self.OUT), name) for name in ("gate", "up")]
        every = (slice(None),) * len(lead)
        return [h] + weights, [h[every + (slice(None, None, 2),)]] + [w.T for w in weights]

    def _run(self, fn, dtype, layout, lead, piped, trained="h gate up"):
        """The output's bytes and each trained leaf gradient's, after one backward."""
        device = rt.GPU if piped else rt.CPU
        leaves, inputs = self._leaves(dtype, layout, lead, device, trained.split())
        pipeline = SavedTensorPipeline(EDKMConfig(group=LearnerGroup(8)))
        with pipeline.step() if piped else contextlib.nullcontext():
            out = fn(*inputs)
            out.backward(np.random.default_rng(3).standard_normal(out.shape).astype(np.float32))
        assert inputs[0].is_contiguous() == (layout == "contiguous")
        return [_bits(out)] + [None if t.grad is None else _bits(t.grad) for t in leaves]

    @pytest.mark.parametrize("piped", [False, True], ids=["hooks off", "pipeline"])
    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("dtype", [rt.float32, rt.bfloat16], ids=lambda d: d.name)
    @pytest.mark.parametrize("composite", COMPOSITES)
    def test_output_and_gradients_equal_the_composite(self, composite, dtype, layout, lead, piped):
        args = (dtype, layout, self.LEADS[lead], piped)
        fused = self._run(ops.swiglu, *args)
        assert fused == self._run(self.COMPOSITES[composite], *args)
        assert len(fused) == 4 and None not in fused

    # Every proper subset of (h, W_g, W_u) that still needs a backward.
    TRAINED = ["h", "gate", "up", "h gate", "h up", "gate up"]

    @pytest.mark.parametrize("piped", [False, True], ids=["hooks off", "pipeline"])
    @pytest.mark.parametrize("dtype", [rt.float32, rt.bfloat16], ids=lambda d: d.name)
    @pytest.mark.parametrize("trained", TRAINED)
    def test_frozen_inputs_equal_the_composite(self, trained, dtype, piped):
        args = (dtype, "strided", self.LEADS["3-D"], piped, trained)
        fused = self._run(ops.swiglu, *args)
        assert fused == self._run(swiglu_composite, *args)
        got = [grad is not None for grad in fused[1:]]
        assert got == [name in trained.split() for name in ("h", "gate", "up")]

    # (h, W_g, W_u) dtypes: one, the clustered layers' bf16 weights under
    # float32 activations, and a float16 / bfloat16 pair that promotes.
    DTYPES = [
        ("float32",) * 3,
        ("bfloat16",) * 3,
        ("float32", "bfloat16", "bfloat16"),
        ("float16", "bfloat16", "bfloat16"),
    ]

    @pytest.mark.parametrize("dtypes", DTYPES, ids="-".join)
    def test_served_epilogue_equals_the_no_grad_forward(self, dtypes):
        """The served palette path runs both gemms in numpy and ends in
        ``silu_gate``: the op's bytes."""
        rng = np.random.default_rng(5)
        shapes = [(2, 5, self.IN), (self.OUT, self.IN), (self.OUT, self.IN)]
        h, w_gate, w_up = (
            rt.Tensor.from_numpy(rng.standard_normal(shape) * 3, dtype=dtype)
            for shape, dtype in zip(shapes, dtypes)
        )
        with no_grad():
            want = ops.swiglu(h, w_gate, w_up)
        rows = h._compute().reshape(-1, self.IN)

        def gemm(w):
            return np.matmul(rows, w._compute().T).reshape(2, 5, self.OUT)

        gate_dtype, up_dtype = promote(h.dtype, w_gate.dtype), promote(h.dtype, w_up.dtype)
        gate = gate_dtype.project(gemm(w_gate)).astype(np.float32)
        got, dtype = silu_gate(gate, gate_dtype, gemm(w_up), up_dtype)
        assert dtype is want.dtype
        assert dtype.project(got).tobytes() == _bits(want)

    def test_saves_its_three_inputs_only(self):
        shapes = [(3, 4), (5, 4), (5, 4)]
        h, w_gate, w_up = (
            rt.tensor(_arr(s, seed), requires_grad=True) for seed, s in enumerate(shapes)
        )
        with count_ops() as counts:
            saved = _saved_by(lambda: ops.swiglu(h, w_gate, w_up))
        assert [t is u for t, u in zip(saved, (h, w_gate, w_up))] == [True] * 3 and len(saved) == 3
        assert dict(counts.dispatches) == {"SwiGLU": 1}

    def test_shapes_must_match(self):
        h, w = rt.tensor(_arr((3, 4))), rt.tensor(_arr((5, 4)))
        with pytest.raises(ValueError, match="gate weight shape"):
            ops.swiglu(h, rt.tensor(_arr((6, 4))), w)
        with pytest.raises(ValueError, match="shape mismatch"):
            ops.swiglu(h, rt.tensor(_arr((5, 3))), rt.tensor(_arr((5, 3))))
        with pytest.raises(ValueError, match="shape mismatch"):
            ops.swiglu(rt.tensor(_arr((4,))), w, w)
        with pytest.raises(ValueError, match="no bias"):
            nn.Linear(4, 5)(h, gate=nn.Linear(4, 5, bias=False))
        with pytest.raises(ValueError, match="gate projection takes no bias"):
            nn.Linear(4, 5, bias=False)(h, gate=nn.Linear(4, 5))


class TestCausalAttention:
    """``softmax(mask(q·kᵀ/√d))·v`` as one op and as the ``MatMul``, ``Mul``,
    ``MaskedFill``, ``Softmax``, ``MatMul`` and head-merge chain."""

    # (B, heads, T, head_dim): the e2e benchmark's layer, one token, and a
    # head dimension of 1 (the score gemm becomes a broadcast multiply).
    SHAPES = {"bench": (16, 8, 23, 16), "T=1": (2, 3, 1, 4), "d=1": (2, 3, 7, 1)}

    def _leaves(self, dtype, shape, strided_v, device):
        """``(leaves, inputs)``: a strided ``v`` is every other column of a
        ``(B, T, heads, 2·d)`` leaf, permuted as attention splits heads."""
        rng = np.random.default_rng(11)

        def leaf(leaf_shape):
            values = rng.standard_normal(leaf_shape) * 2.0
            return rt.Tensor.from_numpy(values, dtype=dtype, device=device, requires_grad=True)

        q, k = leaf(shape), leaf(shape)
        if not strided_v:
            v = leaf(shape)
            return (q, k, v), (q, k, v)
        batch, heads, seq, head_dim = shape
        v = leaf((batch, seq, heads, 2 * head_dim))
        return (q, k, v), (q, k, v[..., ::2].permute(0, 2, 1, 3))

    def _run(self, fn, dtype, shape, strided_v, piped):
        """The output's bytes and each leaf gradient's, after one backward."""
        device = rt.GPU if piped else rt.CPU
        leaves, inputs = self._leaves(dtype, shape, strided_v, device)
        pipeline = SavedTensorPipeline(EDKMConfig(group=LearnerGroup(8)))
        with pipeline.step() if piped else contextlib.nullcontext():
            out = fn(*inputs)
            out.backward(np.random.default_rng(3).standard_normal(out.shape).astype(np.float32))
        assert inputs[2].is_contiguous() != strided_v
        return [_bits(t) for t in [out] + [leaf.grad for leaf in leaves]]

    @pytest.mark.parametrize("piped", [False, True], ids=["hooks off", "pipeline"])
    @pytest.mark.parametrize("strided_v", [False, True], ids=["contiguous v", "strided v"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [rt.float32, rt.bfloat16], ids=lambda d: d.name)
    def test_output_and_gradients_equal_the_composite(self, dtype, shape, strided_v, piped):
        args = (dtype, self.SHAPES[shape], strided_v, piped)
        fused = self._run(ops.causal_attention, *args)
        assert fused == self._run(attention_composite, *args)
        assert len(fused) == 4

    def test_float16_fills_a_score_it_can_hold(self):
        """``-1e9`` has no float16 value: the op fills float16's lowest
        finite score, which warns nowhere and whose weight underflows to 0
        as the chain's ``-inf`` did, so the bytes are the chain's."""
        args = (rt.float16, self.SHAPES["bench"], True, False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fused = self._run(ops.causal_attention, *args)
        with np.errstate(over="ignore"):  # the chain's -1e9 overflows to -inf
            assert fused == self._run(attention_composite, *args)

    def test_output_merges_the_heads(self):
        q, k, v = (rt.tensor(_arr((2, 3, 5, 4), seed)) for seed in range(3))
        out = ops.causal_attention(q, k, v)
        assert out.shape == (2, 5, 12) and out.is_contiguous()
        # Row 0 sees only position 0: its context is v's first row, per head.
        first = v.numpy()[:, :, 0, :].reshape(2, 12)
        assert np.array_equal(out.numpy()[:, 0, :], first)

    def test_a_row_ignores_later_positions(self):
        """Row ``i``'s weight on every later position is exactly 0, so no
        value there reaches its output bytes (the eval harness's grouped
        scoring relies on it) or gets a gradient from it."""
        q, k, v = (rt.tensor(_arr((1, 2, 6, 4), seed), requires_grad=True) for seed in range(3))
        out = ops.causal_attention(q, k, v)
        changed_k, changed_v = k.numpy(), v.numpy()
        changed_k[:, :, 3:] *= -7.0
        changed_v[:, :, 3:] += 5.0
        again = ops.causal_attention(q, rt.tensor(changed_k), rt.tensor(changed_v))
        assert out.numpy()[:, :3].tobytes() == again.numpy()[:, :3].tobytes()
        upstream = np.zeros(out.shape, dtype=np.float32)
        upstream[:, :3] = 1.0
        out.backward(upstream)
        assert not k.grad.numpy()[:, :, 3:].any() and not v.grad.numpy()[:, :, 3:].any()
        assert not q.grad.numpy()[:, :, 3:].any()

    def test_saves_q_k_and_v_only(self):
        q, k, v = (rt.tensor(_arr((2, 3, 5, 4), seed), requires_grad=True) for seed in range(3))
        with count_ops() as counts:
            saved = _saved_by(lambda: ops.causal_attention(q, k, v))
        assert [t is u for t, u in zip(saved, (q, k, v))] == [True] * 3 and len(saved) == 3
        assert dict(counts.dispatches) == {"CausalAttention": 1}

    @pytest.mark.parametrize("trained", ["q", "k", "v"])
    def test_frozen_inputs_get_no_gradient(self, trained):
        inputs = {
            name: rt.tensor(_arr((2, 3, 5, 4), seed), requires_grad=name == trained)
            for seed, name in enumerate("qkv")
        }
        ops.causal_attention(*inputs.values()).sum().backward()
        assert {name: t.grad is not None for name, t in inputs.items()} == {
            name: name == trained for name in "qkv"
        }

    def test_shapes_must_match(self):
        q = rt.tensor(_arr((2, 3, 5, 4)))
        with pytest.raises(ValueError, match="one \\(batch, heads, seq, head_dim\\) shape"):
            ops.causal_attention(q, q, rt.tensor(_arr((2, 3, 5, 8))))
        with pytest.raises(ValueError, match="one \\(batch, heads, seq, head_dim\\) shape"):
            ops.causal_attention(q, rt.tensor(_arr((2, 3, 4, 4))), q)
        flat = rt.tensor(_arr((3, 5, 4)))
        with pytest.raises(ValueError, match="one \\(batch, heads, seq, head_dim\\) shape"):
            ops.causal_attention(flat, flat, flat)
