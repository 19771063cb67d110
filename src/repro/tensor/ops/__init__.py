"""Functional namespace over the op Functions.

Everything here takes and returns :class:`~repro.tensor.tensor.Tensor`
objects; gradients flow through all of it unless documented otherwise.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.tensor.device import Device
from repro.tensor.dtype import DType
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import normalize_dim
from repro.tensor.ops.arithmetic import Add, Div, Mul, Pow, Sqrt, Sub
from repro.tensor.ops.activation import LogSoftmax, Softmax
from repro.tensor.ops.indexing import IndexSelect, TakeAlongDim
from repro.tensor.ops.matmul import CausalAttention, MatMul, SwiGLU, causal_mask
from repro.tensor.ops.movement import Cast, ToDevice
from repro.tensor.ops.norm import RmsNorm
from repro.tensor.ops.reduce import Mean, Sum
from repro.tensor.ops.rotary import Rope
from repro.tensor.ops.shape import Cat, Contiguous, Permute, Slice, Transpose, View


# -- arithmetic -------------------------------------------------------------

def add(a: Tensor, b: Any) -> Tensor:
    return Add.apply(a, b)


def sub(a: Tensor, b: Any) -> Tensor:
    return Sub.apply(a, b)


def mul(a: Tensor, b: Any) -> Tensor:
    return Mul.apply(a, b)


def div(a: Tensor, b: Any) -> Tensor:
    return Div.apply(a, b)


def pow(a: Tensor, exponent: float) -> Tensor:  # noqa: A001 - mirrors torch
    return Pow.apply(a, exponent)


def sqrt(a: Tensor) -> Tensor:
    return Sqrt.apply(a)


# -- matmul -----------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``; both operands need ``ndim >= 2`` (``MatMul`` raises otherwise)."""
    return MatMul.apply(a, b)


def swiglu(h: Tensor, w_gate: Tensor, w_up: Tensor) -> Tensor:
    """``silu(h @ w_gate.T) * (h @ w_up.T)``, saving only the three inputs for backward.

    Neither the gate nor the up activation is ever a tensor: backward
    rebuilds both from ``h`` and the two weights.
    """
    return SwiGLU.apply(h, w_gate, w_up)


def causal_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """``softmax(mask(q·kᵀ/√d))·v`` over ``(B, heads, T, d)`` inputs, as ``(B, T, heads·d)``.

    Saves only ``q``, ``k`` and ``v`` for backward: no ``B·heads·T²`` map
    is kept.
    """
    return CausalAttention.apply(q, k, v)


# -- reductions ---------------------------------------------------------------

def _reduce_dim(a: Tensor, dim: int | None) -> int | None:
    return dim if dim is None else normalize_dim(dim, a.ndim)


def sum_(a: Tensor, dim: int | None = None, keepdim: bool = False) -> Tensor:
    return Sum.apply(a, _reduce_dim(a, dim), keepdim)


def mean(a: Tensor, dim: int | None = None, keepdim: bool = False) -> Tensor:
    return Mean.apply(a, _reduce_dim(a, dim), keepdim)


# -- activations --------------------------------------------------------------

def softmax(a: Tensor, dim: int = -1) -> Tensor:
    return Softmax.apply(a, dim)


def log_softmax(a: Tensor, dim: int = -1) -> Tensor:
    return LogSoftmax.apply(a, dim)


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


def slice_(a: Tensor, key: Any) -> Tensor:
    return Slice.apply(a, key)


def cat(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    return Cat.apply(*tensors, dim=dim)


# -- indexing -----------------------------------------------------------------

def index_select(weight: Tensor, indices: Tensor) -> Tensor:
    return IndexSelect.apply(weight, indices)


def embedding(weight: Tensor, indices: Tensor) -> Tensor:
    """Alias of :func:`index_select` named for its LLM use."""
    return IndexSelect.apply(weight, indices)


def take_along_dim(a: Tensor, indices: Tensor, dim: int) -> Tensor:
    return TakeAlongDim.apply(a, indices, dim)


# -- movement -----------------------------------------------------------------

def to_device(a: Tensor, device: Device, tag: str = "") -> Tensor:
    return ToDevice.apply(a, device, tag=tag)


def cast(a: Tensor, dtype: DType) -> Tensor:
    return Cast.apply(a, dtype)
