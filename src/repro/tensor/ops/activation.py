"""Nonlinearities.

``Softmax`` is the op at the centre of the paper: DKM's attention map *is* a
softmax output saved for backward, and its ``O(|W|·|C|)`` saved tensor is
what eDKM compresses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function
from repro.tensor.pairwise import stable_softmax, sum_keepdims
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import make_result, normalize_dim


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic without exp overflow on either tail, in whole-array passes.

    ``e = exp(-|x|)`` never overflows; ``x >= 0`` takes ``1 / (1 + e)`` and
    ``x < 0`` takes ``e / (1 + e)`` -- the two branch formulas evaluated
    elementwise instead of gathered and scattered through boolean masks.
    ``minimum(x, -x)`` rather than ``-abs(x)`` keeps a NaN's sign bit.
    """
    # A typed one: a python 1.0 would promote a 0-d input's scalars to
    # float64 under numpy < 2 and round twice.
    one = x.dtype.type(1)
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, one, e)
    e += one
    out /= e
    return out


class Softmax(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, dim: int) -> Tensor:
        dim = normalize_dim(dim, a.ndim)
        ctx.dim = dim
        out = make_result(stable_softmax(a._compute(), dim), a.dtype, a.device)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (out,) = ctx.saved_tensors
        y = out._compute()
        inner = sum_keepdims(grad * y, ctx.dim)
        return (y * (grad - inner),)


class LogSoftmax(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, dim: int) -> Tensor:
        dim = normalize_dim(dim, a.ndim)
        ctx.dim = dim
        x = a._compute()
        shifted = x - x.max(axis=dim, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=dim, keepdims=True))
        out = make_result(shifted - log_z, a.dtype, a.device)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (out,) = ctx.saved_tensors
        softmax = np.exp(out._compute())
        return (grad - softmax * grad.sum(axis=ctx.dim, keepdims=True),)


class Relu(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        a_np = a._compute()
        ctx.mask = (a_np > 0).astype(a.dtype.np_compute)
        return make_result(np.maximum(a_np, 0.0), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (grad * ctx.mask,)


class Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        x = a._compute()
        out = make_result(_stable_sigmoid(x), a.dtype, a.device)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (out,) = ctx.saved_tensors
        y = out._compute()
        return (grad * y * (1.0 - y),)


class Tanh(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        out = make_result(np.tanh(a._compute()), a.dtype, a.device)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (out,) = ctx.saved_tensors
        y = out._compute()
        return (grad * (1.0 - y * y),)


class Silu(Function):
    """x * sigmoid(x) -- the LLaMA MLP activation."""

    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        ctx.save_for_backward(a)
        x = a._compute()
        sig = _stable_sigmoid(x)
        return make_result(x * sig, a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (a,) = ctx.saved_tensors
        x = a._compute()
        sig = _stable_sigmoid(x)
        return (grad * (sig + x * sig * (1.0 - sig)),)


class Gelu(Function):
    """Tanh-approximation GELU."""

    _C = float(np.sqrt(2.0 / np.pi))

    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        ctx.save_for_backward(a)
        x = a._compute()
        inner = Gelu._C * (x + 0.044715 * x**3)
        return make_result(0.5 * x * (1.0 + np.tanh(inner)), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (a,) = ctx.saved_tensors
        x = a._compute()
        inner = Gelu._C * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        d_inner = Gelu._C * (1.0 + 3.0 * 0.044715 * x**2)
        return (grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)
