"""Functional namespace over the op Functions.

Everything here takes and returns :class:`~repro.tensor.tensor.Tensor`
objects; gradients flow through all of it unless documented otherwise.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.tensor.device import Device
from repro.tensor.dtype import DType, bool_, get_dtype, int64
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import make_result, normalize_dim
from repro.tensor.ops.arithmetic import (
    Abs,
    Add,
    Clip,
    Div,
    Exp,
    Log,
    Mul,
    Neg,
    Pow,
    Sqrt,
    Sub,
)
from repro.tensor.ops.activation import (
    Gelu,
    LogSoftmax,
    Relu,
    Sigmoid,
    Silu,
    Softmax,
    Tanh,
)
from repro.tensor.ops.indexing import IndexSelect, MaskedFill, TakeAlongDim, Where
from repro.tensor.ops.matmul import MatMul
from repro.tensor.ops.movement import Cast, ToDevice
from repro.tensor.ops.norm import RmsNorm
from repro.tensor.ops.reduce import Max, Mean, Min, Sum
from repro.tensor.ops.rotary import Rope
from repro.tensor.ops.shape import Cat, Contiguous, Expand, Permute, Slice, Transpose, View


# -- arithmetic -------------------------------------------------------------

def add(a: Tensor, b: Any) -> Tensor:
    return Add.apply(a, b)


def sub(a: Tensor, b: Any) -> Tensor:
    return Sub.apply(a, b)


def mul(a: Tensor, b: Any) -> Tensor:
    return Mul.apply(a, b)


def div(a: Tensor, b: Any) -> Tensor:
    return Div.apply(a, b)


def neg(a: Tensor) -> Tensor:
    return Neg.apply(a)


def pow(a: Tensor, exponent: float) -> Tensor:  # noqa: A001 - mirrors torch
    return Pow.apply(a, exponent)


def exp(a: Tensor) -> Tensor:
    return Exp.apply(a)


def log(a: Tensor) -> Tensor:
    return Log.apply(a)


def sqrt(a: Tensor) -> Tensor:
    return Sqrt.apply(a)


def abs_(a: Tensor) -> Tensor:
    return Abs.apply(a)


def clip(a: Tensor, low: float | None, high: float | None) -> Tensor:
    return Clip.apply(a, low, high)


# -- matmul -----------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    squeeze_front = a.ndim == 1
    squeeze_back = b.ndim == 1
    if squeeze_front:
        a = a.unsqueeze(0)
    if squeeze_back:
        b = b.unsqueeze(1)
    out = MatMul.apply(a, b)
    if squeeze_back:
        out = out.squeeze(out.ndim - 1)
    if squeeze_front:
        out = out.squeeze(0)
    return out


# -- reductions ---------------------------------------------------------------

def _reduce_dim(a: Tensor, dim: int | None) -> int | None:
    return dim if dim is None else normalize_dim(dim, a.ndim)


def sum_(a: Tensor, dim: int | None = None, keepdim: bool = False) -> Tensor:
    return Sum.apply(a, _reduce_dim(a, dim), keepdim)


def mean(a: Tensor, dim: int | None = None, keepdim: bool = False) -> Tensor:
    return Mean.apply(a, _reduce_dim(a, dim), keepdim)


def max_(a: Tensor, dim: int | None = None, keepdim: bool = False) -> Tensor:
    return Max.apply(a, _reduce_dim(a, dim), keepdim)


def min_(a: Tensor, dim: int | None = None, keepdim: bool = False) -> Tensor:
    return Min.apply(a, _reduce_dim(a, dim), keepdim)


# -- activations --------------------------------------------------------------

def softmax(a: Tensor, dim: int = -1) -> Tensor:
    return Softmax.apply(a, dim)


def log_softmax(a: Tensor, dim: int = -1) -> Tensor:
    return LogSoftmax.apply(a, dim)


def relu(a: Tensor) -> Tensor:
    return Relu.apply(a)


def sigmoid(a: Tensor) -> Tensor:
    return Sigmoid.apply(a)


def tanh(a: Tensor) -> Tensor:
    return Tanh.apply(a)


def silu(a: Tensor) -> Tensor:
    return Silu.apply(a)


def gelu(a: Tensor) -> Tensor:
    return Gelu.apply(a)


# -- transformer-block ops ------------------------------------------------------

def rms_norm(a: Tensor, weight: Tensor, eps: float) -> Tensor:
    """``a / sqrt(mean(a·a) + eps) · weight`` over the last axis."""
    return RmsNorm.apply(a, weight, eps)


def rope(a: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate the halves of ``a``'s last axis by constant ``cos`` / ``sin`` tables."""
    return Rope.apply(a, cos, sin)


# -- shape --------------------------------------------------------------------

def view(a: Tensor, shape: Sequence[int]) -> Tensor:
    return View.apply(a, tuple(shape))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    if a.is_contiguous():
        return View.apply(a, tuple(shape))
    return View.apply(Contiguous.apply(a), tuple(shape))


def transpose(a: Tensor, dim0: int, dim1: int) -> Tensor:
    return Transpose.apply(a, dim0, dim1)


def permute(a: Tensor, dims: Sequence[int]) -> Tensor:
    return Permute.apply(a, tuple(dims))


def expand(a: Tensor, shape: Sequence[int]) -> Tensor:
    return Expand.apply(a, tuple(shape))


def slice_(a: Tensor, key: Any) -> Tensor:
    return Slice.apply(a, key)


def contiguous(a: Tensor) -> Tensor:
    return Contiguous.apply(a)


def cat(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    return Cat.apply(*tensors, dim=dim)


def stack(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    return cat([t.unsqueeze(dim) for t in tensors], dim=dim)


def split(a: Tensor, size: int, dim: int = 0) -> list[Tensor]:
    """Split into chunks of ``size`` along ``dim`` (last may be smaller)."""
    dim = normalize_dim(dim, a.ndim)
    chunks = []
    for start in range(0, a.shape[dim], size):
        key = [slice(None)] * a.ndim
        key[dim] = slice(start, min(start + size, a.shape[dim]))
        chunks.append(slice_(a, tuple(key)))
    return chunks


# -- indexing -----------------------------------------------------------------

def index_select(weight: Tensor, indices: Tensor) -> Tensor:
    return IndexSelect.apply(weight, indices)


def embedding(weight: Tensor, indices: Tensor) -> Tensor:
    """Alias of :func:`index_select` named for its LLM use."""
    return IndexSelect.apply(weight, indices)


def take_along_dim(a: Tensor, indices: Tensor, dim: int) -> Tensor:
    return TakeAlongDim.apply(a, indices, dim)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    return MaskedFill.apply(a, mask, value)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    return Where.apply(condition, a, b)


# -- movement -----------------------------------------------------------------

def to_device(a: Tensor, device: Device, tag: str = "") -> Tensor:
    return ToDevice.apply(a, device, tag=tag)


def cast(a: Tensor, dtype: DType) -> Tensor:
    return Cast.apply(a, dtype)


# -- non-differentiable helpers -------------------------------------------------

def compare(a: Tensor, b: Any, kind: str) -> Tensor:
    """Elementwise comparison producing a bool tensor (never on the tape)."""
    b_np = b._np() if isinstance(b, Tensor) else np.asarray(b)
    a_np = a._np()
    fn = {
        "eq": np.equal,
        "ne": np.not_equal,
        "lt": np.less,
        "le": np.less_equal,
        "gt": np.greater,
        "ge": np.greater_equal,
    }[kind]
    return make_result(fn(a_np, b_np), bool_, a.device)


def argmax(a: Tensor, dim: int | None = None) -> Tensor:
    return make_result(np.argmax(a._np(), axis=dim), int64, a.device)


def argmin(a: Tensor, dim: int | None = None) -> Tensor:
    return make_result(np.argmin(a._np(), axis=dim), int64, a.device)


def constant_like(a: Tensor, value: Any) -> Tensor:
    """A constant scalar/array tensor on ``a``'s device and dtype."""
    return Tensor.from_numpy(
        np.broadcast_to(np.asarray(value, dtype=a.dtype.np_compute), a.shape),
        dtype=a.dtype,
        device=a.device,
    )


def one_hot(indices: Tensor, num_classes: int, dtype: DType | str = "float32") -> Tensor:
    dt = get_dtype(dtype)
    idx = indices._np().astype(np.int64, copy=False)
    eye = np.eye(num_classes, dtype=dt.np_storage)
    return make_result(eye[idx], dt, indices.device)


def causal_mask(size: int) -> np.ndarray:
    """Boolean mask that is True strictly above the diagonal (to be filled)."""
    return np.triu(np.ones((size, size), dtype=bool), k=1)
