"""Every op's gradient is independent of its input's layout and holds at 16 bits.

eDKM trains in bf16 / fp16 and its marshaling hands ops permuted and sliced
views, so for each op in ``repro.tensor.ops``:

- the forward result and every leaf gradient are byte-identical whether the
  op reads a contiguous input or a transposed or strided view of the same
  values;
- with 16-bit leaves, each leaf gradient is in the leaf's dtype and agrees
  with the float32 gradient of the same (rounded) inputs to a few units in
  the last place of that dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tensor as rt
from repro.tensor import ops
from repro.tensor.autograd import Function
from repro.tensor.ops import activation, arithmetic, indexing, movement, norm
from repro.tensor.ops import reduce, rotary, shape
from repro.tensor.ops.matmul import CausalAttention, MatMul, SwiGLU

_COS, _SIN = rotary.rope_tables(4, 3, 1e4)


def _index(high, shape_):
    return rt.tensor(np.random.default_rng(5).integers(0, high, shape_), dtype="int64")


# Each case is ``(leaf shapes, fn)``: ``fn`` applies the op to the leaves (or
# to views of them), and the op must appear in the graph it builds.
CASES = {
    arithmetic.Add: ([(3, 4), (3, 4)], lambda a, b: a + b),
    arithmetic.Sub: ([(3, 4), (1, 4)], lambda a, b: a - b),
    arithmetic.Mul: ([(3, 4), (3, 1)], lambda a, b: a * b),
    arithmetic.Div: ([(3, 4), (3, 4)], lambda a, b: a / b),
    arithmetic.Pow: ([(3, 4)], lambda a: a ** 3.0),
    arithmetic.Sqrt: ([(3, 4)], lambda a: a.sqrt()),
    MatMul: ([(3, 4), (4, 5)], lambda a, b: a @ b),
    reduce.Sum: ([(3, 4)], lambda a: ops.sum_(a, dim=0)),
    reduce.Mean: ([(3, 4)], lambda a: ops.mean(a, dim=1, keepdim=True)),
    activation.Softmax: ([(3, 4)], lambda a: ops.softmax(a, dim=-1)),
    activation.LogSoftmax: ([(3, 4)], lambda a: ops.log_softmax(a, dim=0)),
    SwiGLU: ([(3, 4), (5, 4), (5, 4)], lambda h, w_gate, w_up: ops.swiglu(h, w_gate, w_up)),
    # (T, head_dim) leaves as one batch of one head.
    CausalAttention: (
        [(3, 4), (3, 4), (3, 4)],
        lambda q, k, v: ops.causal_attention(q[None, None], k[None, None], v[None, None]),
    ),
    norm.RmsNorm: ([(3, 4), (4,)], lambda a, w: ops.rms_norm(a, w, 1e-6)),
    rotary.Rope: ([(3, 4)], lambda a: ops.rope(a, _COS, _SIN)),
    shape.View: ([(3, 4)], lambda a: ops.reshape(a, (12,))),
    shape.Transpose: ([(3, 4)], lambda a: a.transpose(0, 1)),
    shape.Permute: ([(3, 4)], lambda a: a.permute(1, 0)),
    shape.Slice: ([(3, 4)], lambda a: a[1:, ::2]),
    shape.Cat: ([(3, 4), (3, 4)], lambda a, b: ops.cat([a, b], dim=1)),
    shape.Contiguous: ([(3, 4)], lambda a: ops.reshape(a[:, ::2], (6,))),
    indexing.IndexSelect: ([(3, 4)], lambda a: ops.index_select(a, _index(3, (5,)))),
    indexing.TakeAlongDim: (
        [(3, 4)], lambda a: ops.take_along_dim(a, _index(4, (3, 4)), dim=1)
    ),
    movement.Cast: ([(3, 4)], lambda a: movement.Cast.apply(a, rt.float32)),
    movement.ToDevice: ([(3, 4)], lambda a: a.to(rt.GPU)),
}

_IDS = [op.__name__ for op in CASES]
_EPS = {"bfloat16": 2.0**-8, "float16": 2.0**-11}


def _op_classes(cls=Function) -> set[type]:
    """Every Function with its own ``forward`` defined under ``repro.tensor.ops``."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith(ops.__name__) and "forward" in sub.__dict__:
            found.add(sub)
        found |= _op_classes(sub)
    return found


def _graph_ops(out) -> set[type]:
    seen, stack = set(), [out.grad_fn]
    while stack:
        node = stack.pop()
        seen.add(node.fn)
        stack += [target for kind, target in node.edges if kind == "node"]
    return seen


def _leaf(values: np.ndarray, dtype: str, layout: str):
    """``(leaf, input)``: ``input`` holds ``values`` in ``layout`` and is built from ``leaf``."""
    if values.ndim < 2 or layout == "contiguous":
        leaf = rt.tensor(values, dtype=dtype, requires_grad=True)
        return leaf, leaf
    if layout == "transposed":
        leaf = rt.tensor(np.ascontiguousarray(values.T), dtype=dtype, requires_grad=True)
        return leaf, leaf.transpose(0, 1)
    wide = np.zeros((values.shape[0], 2 * values.shape[1]), dtype=values.dtype)
    wide[:, 1::2] = values
    leaf = rt.tensor(wide, dtype=dtype, requires_grad=True)
    return leaf, leaf[:, 1::2]


def _run(op, dtype="float32", layout="contiguous", values=None):
    """The op's output and its leaves' gradients, both as float32 arrays.

    The inputs are drawn in [0.5, 2) and rounded to ``values`` (default:
    ``dtype``), so a float32 run can see the values of a 16-bit one.
    """
    shapes, fn = CASES[op]
    rng = np.random.default_rng(0)
    arrays = [
        rt.tensor(rng.uniform(0.5, 2.0, s), dtype=values or dtype).numpy().astype(np.float32)
        for s in shapes
    ]
    leaves, inputs = zip(*(_leaf(a, dtype, layout) for a in arrays))
    out = fn(*inputs)
    assert op in _graph_ops(out)
    out.backward(np.random.default_rng(1).uniform(-1.0, 1.0, out.shape).astype(np.float32))
    grads = []
    for a, leaf in zip(arrays, leaves):
        assert leaf.grad.dtype is rt.get_dtype(dtype)
        grad = leaf.grad.numpy().astype(np.float32)
        if a.ndim >= 2 and layout == "transposed":
            grad = grad.T
        elif a.ndim >= 2 and layout == "strided":
            assert not grad[:, ::2].any()  # the skipped columns get nothing
            grad = grad[:, 1::2]
        grads.append(grad)
    return out.numpy().astype(np.float32), grads


def test_cases_cover_every_op():
    assert set(CASES) == _op_classes()


@pytest.mark.parametrize("layout", ["transposed", "strided"])
@pytest.mark.parametrize("op", list(CASES), ids=_IDS)
def test_backward_is_layout_independent(op, layout):
    want_out, want_grads = _run(op)
    got_out, got_grads = _run(op, layout=layout)
    assert got_out.tobytes() == want_out.tobytes()
    for got, want in zip(got_grads, want_grads):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
@pytest.mark.parametrize("op", list(CASES), ids=_IDS)
def test_16_bit_gradient_tracks_float32(op, dtype):
    # Each gradient is computed in float32 from 16-bit saved values and
    # rounded once to the leaf dtype: a few ulps of the largest entry.
    _, got_grads = _run(op, dtype)
    _, want_grads = _run(op, "float32", values=dtype)
    for got, want in zip(got_grads, want_grads):
        scale = float(np.abs(want).max())
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * _EPS[dtype] * scale)
