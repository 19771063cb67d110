"""An op's result owns its buffer: it shares memory with no input.

Op results adopt their kernel's array without a copy (``Tensor.adopt``), so
an op whose numpy result can alias an input -- ``astype(copy=False)``,
``ascontiguousarray`` or ``asarray`` passing an array through, a reshape
that is a view -- must copy explicitly.  The property below runs every op
in ``repro.tensor.ops`` except the storage-invariant view ops, which share
by design, over drawn shapes, dtypes and layouts, and checks that

- the result's storage shares memory with no input's storage;
- writing into the result leaves every input byte-identical;
- the result's numpy view reads its own storage.

Whether a reshape, ``astype(copy=False)``, ``ascontiguousarray`` or
``asarray`` returns a view or a copy differs between numpy lines, so CI
runs this file on both.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor as rt
from repro.tensor import ops
from repro.tensor.autograd import Function
from repro.tensor.ops import activation, arithmetic, indexing, movement, norm
from repro.tensor.ops import reduce, rotary, shape
from repro.tensor.ops.matmul import MatMul
from repro.tensor.tensor import Tensor

FLOAT_DTYPES = (rt.float32, rt.bfloat16, rt.float16)


def _index(rng, high, shape_):
    return rt.tensor(rng.integers(0, high, shape_), dtype="int64")


def _other(a, rng):
    """A second float operand of ``a``'s shape and dtype."""
    return Tensor.from_numpy(rng.uniform(0.5, 2.0, a.shape), dtype=a.dtype)


# Each case builds the op's arguments from a drawn float tensor ``a`` (values
# in [0.5, 2), ndim >= 2, last axis even) and a seeded generator.
CASES = {
    arithmetic.Add: lambda a, rng: (a, _other(a, rng)),
    arithmetic.Sub: lambda a, rng: (a, 1.5),
    arithmetic.Mul: lambda a, rng: (a, _other(a, rng)),
    arithmetic.Div: lambda a, rng: (a, 2.0),
    arithmetic.Neg: lambda a, rng: (a,),
    arithmetic.Pow: lambda a, rng: (a, float(rng.choice([1.0, 2.0, 0.5]))),
    arithmetic.Exp: lambda a, rng: (a,),
    arithmetic.Log: lambda a, rng: (a,),
    arithmetic.Sqrt: lambda a, rng: (a,),
    arithmetic.Abs: lambda a, rng: (a,),
    arithmetic.Clip: lambda a, rng: (a, None, 1.0),
    activation.Softmax: lambda a, rng: (a, -1),
    activation.LogSoftmax: lambda a, rng: (a, 0),
    activation.Relu: lambda a, rng: (a,),
    activation.Sigmoid: lambda a, rng: (a,),
    activation.Tanh: lambda a, rng: (a,),
    activation.Silu: lambda a, rng: (a,),
    activation.Gelu: lambda a, rng: (a,),
    indexing.IndexSelect: lambda a, rng: (
        a, _index(rng, a.shape[0], () if rng.random() < 0.5 else (3,))
    ),
    indexing.TakeAlongDim: lambda a, rng: (a, _index(rng, a.shape[-1], a.shape), a.ndim - 1),
    indexing.MaskedFill: lambda a, rng: (a, rng.random(a.shape) < 0.5, -1.0),
    indexing.Where: lambda a, rng: (rng.random(a.shape) < 0.5, a, _other(a, rng)),
    MatMul: lambda a, rng: (
        a, Tensor.from_numpy(rng.uniform(size=(a.shape[-1], 3)), dtype=a.dtype)
    ),
    movement.ToDevice: lambda a, rng: (a, rt.GPU),
    movement.Cast: lambda a, rng: (a, FLOAT_DTYPES[rng.integers(len(FLOAT_DTYPES))]),
    norm.RmsNorm: lambda a, rng: (
        a, Tensor.from_numpy(rng.uniform(size=a.shape[-1:]), dtype=a.dtype), 1e-6
    ),
    reduce.Sum: lambda a, rng: (a, None if rng.random() < 0.5 else 0, bool(rng.random() < 0.5)),
    reduce.Mean: lambda a, rng: (a, a.ndim - 1, False),
    reduce.Max: lambda a, rng: (a, None if rng.random() < 0.5 else 0, True),
    reduce.Min: lambda a, rng: (a, a.ndim - 1, False),
    rotary.Rope: lambda a, rng: (a, *rotary.rope_tables(a.shape[-1], a.shape[-2], 1e4)),
    shape.Cat: lambda a, rng: (a,) if rng.random() < 0.5 else (a, _other(a, rng)),
    shape.Contiguous: lambda a, rng: (a,),
}

# The result builders in `repro.tensor.ops` that are not Functions.
HELPERS = {
    "compare": lambda a, rng: ops.compare(a, 1.0, "gt"),
    "argmax": lambda a, rng: ops.argmax(a, dim=0),
    "argmin": lambda a, rng: ops.argmin(a),
    "one_hot": lambda a, rng: ops.one_hot(_index(rng, 4, ()), 4),
    "constant_like": lambda a, rng: ops.constant_like(a, 3.0),
}


def _op_classes() -> set[type]:
    """Every Function with its own ``forward`` defined under ``repro.tensor.ops``."""
    found = set()
    for info in pkgutil.iter_modules(ops.__path__, ops.__name__ + "."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(cls, Function)
                and cls.__module__ == module.__name__
                and "forward" in cls.__dict__
            ):
                found.add(cls)
    return found


def _draw_tensor(data) -> Tensor:
    """A float tensor in a drawn dtype and layout: contiguous, transposed or strided."""
    dims = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    dims[-1] *= 2
    dtype = data.draw(st.sampled_from(FLOAT_DTYPES))
    layout = data.draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    if layout == "transposed":
        base = Tensor.from_numpy(rng.uniform(0.5, 2.0, dims[::-1]), dtype=dtype)
        return base.permute(*reversed(range(len(dims))))
    if layout == "strided":
        base = Tensor.from_numpy(rng.uniform(0.5, 2.0, dims[:-1] + [2 * dims[-1]]), dtype=dtype)
        return base[..., ::2]
    return Tensor.from_numpy(rng.uniform(0.5, 2.0, dims), dtype=dtype)


def _assert_owns_its_buffer(result: Tensor, inputs: list[Tensor]) -> None:
    before = [t.storage.data.tobytes() for t in inputs]
    for t in inputs:
        assert not np.may_share_memory(result.storage.data, t.storage.data)
    assert np.shares_memory(result._np(), result.storage.data)
    result._np()[...] = 1 if result.dtype is rt.bool_ else 7
    for t, raw in zip(inputs, before):
        assert t.storage.data.tobytes() == raw
    assert (result.storage.data == result._np().reshape(-1)[0]).all()


def test_cases_cover_every_non_view_op():
    ops_found = _op_classes()
    views = {cls for cls in ops_found if cls.storage_invariant}
    assert views == {shape.View, shape.Transpose, shape.Permute, shape.Expand, shape.Slice}
    assert set(CASES) == ops_found - views


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_op_result_shares_memory_with_no_input(data):
    a = _draw_tensor(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    op = data.draw(st.sampled_from([*CASES, *HELPERS]))
    if op in HELPERS:
        result = HELPERS[op](a, rng)
        inputs = [a]
    else:
        args = CASES[op](a, rng)
        result = op.apply(*args)
        inputs = [x for x in args if isinstance(x, Tensor)]
    _assert_owns_its_buffer(result, inputs)


class TestExplicitCopies:
    """The ops whose numpy result would be an input's own buffer."""

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=lambda d: d.name)
    def test_cast_to_own_dtype(self, dtype):
        a = rt.tensor(np.arange(6.0).reshape(2, 3), dtype=dtype)
        _assert_owns_its_buffer(ops.cast(a, dtype), [a])

    def test_cast_between_dtypes_sharing_a_physical_buffer(self):
        a = rt.tensor(np.arange(6.0).reshape(2, 3), dtype="bfloat16")
        out = a.float()
        assert out.dtype is rt.float32
        _assert_owns_its_buffer(out, [a])

    def test_contiguous_of_contiguous(self):
        a = rt.tensor(np.arange(6.0).reshape(2, 3))
        assert a.is_contiguous()
        _assert_owns_its_buffer(ops.contiguous(a), [a])

    def test_reshape_of_non_contiguous(self):
        a = rt.tensor(np.arange(6.0).reshape(2, 3)).T
        out = a.reshape(6)
        assert np.array_equal(out.numpy(), [0, 3, 1, 4, 2, 5])
        _assert_owns_its_buffer(out, [a])
