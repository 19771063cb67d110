"""Reductions: sum, mean."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import make_result


def _restore_dims(
    grad: np.ndarray, in_shape: tuple[int, ...], dim: int | None, keepdim: bool
) -> np.ndarray:
    """Broadcast a reduced gradient back to the input shape."""
    if dim is None:
        return np.broadcast_to(grad.reshape((1,) * len(in_shape)), in_shape)
    if not keepdim:
        grad = np.expand_dims(grad, axis=dim)
    return np.broadcast_to(grad, in_shape)


class Sum(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, dim: int | None, keepdim: bool) -> Tensor:
        ctx.in_shape, ctx.dim, ctx.keepdim = a.shape, dim, keepdim
        out = a._compute().sum(axis=dim, keepdims=keepdim if dim is not None else False)
        return make_result(np.asarray(out), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (_restore_dims(grad, ctx.in_shape, ctx.dim, ctx.keepdim).copy(),)


class Mean(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, dim: int | None, keepdim: bool) -> Tensor:
        ctx.in_shape, ctx.dim, ctx.keepdim = a.shape, dim, keepdim
        if dim is None:
            ctx.count = max(a.numel, 1)
        else:
            ctx.count = a.shape[dim]
        out = a._compute().mean(axis=dim, keepdims=keepdim if dim is not None else False)
        return make_result(np.asarray(out), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        g = _restore_dims(grad, ctx.in_shape, ctx.dim, ctx.keepdim) / ctx.count
        return (g.copy(),)
