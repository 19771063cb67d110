"""Elementwise arithmetic with broadcasting."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.tensor.autograd import Context, Function, unbroadcast
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import binary_operands, make_result


class Add(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, b: Any) -> Tensor:
        a_np, b_np, dtype, b_is_tensor = binary_operands(a, b)
        ctx.a_shape = a.shape
        ctx.b_shape = b.shape if b_is_tensor else None
        return make_result(a_np + b_np, dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        ga = unbroadcast(grad, ctx.a_shape) if ctx.needs_input_grad[0] else None
        if ctx.b_shape is None:
            return (ga,)
        return (ga, unbroadcast(grad, ctx.b_shape) if ctx.needs_input_grad[1] else None)


class Sub(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, b: Any) -> Tensor:
        a_np, b_np, dtype, b_is_tensor = binary_operands(a, b)
        ctx.a_shape = a.shape
        ctx.b_shape = b.shape if b_is_tensor else None
        return make_result(a_np - b_np, dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        ga = unbroadcast(grad, ctx.a_shape) if ctx.needs_input_grad[0] else None
        if ctx.b_shape is None:
            return (ga,)
        return (ga, unbroadcast(-grad, ctx.b_shape) if ctx.needs_input_grad[1] else None)


class Mul(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, b: Any) -> Tensor:
        a_np, b_np, dtype, b_is_tensor = binary_operands(a, b)
        ctx.a_shape = a.shape
        ctx.b_shape = b.shape if b_is_tensor else None
        if b_is_tensor:
            ctx.save_for_backward(a, b)
        else:
            ctx.scalar = float(np.asarray(b))
        return make_result(a_np * b_np, dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        if ctx.b_shape is None:
            return (unbroadcast(grad * ctx.scalar, ctx.a_shape),)
        a, b = ctx.saved_tensors
        needs_a, needs_b = ctx.needs_input_grad
        ga = unbroadcast(grad * b._compute(), ctx.a_shape) if needs_a else None
        gb = unbroadcast(grad * a._compute(), ctx.b_shape) if needs_b else None
        return (ga, gb)


class Div(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, b: Any) -> Tensor:
        a_np, b_np, dtype, b_is_tensor = binary_operands(a, b)
        ctx.a_shape = a.shape
        ctx.b_shape = b.shape if b_is_tensor else None
        if b_is_tensor:
            ctx.save_for_backward(a, b)
        else:
            ctx.scalar = float(np.asarray(b))
        return make_result(a_np / b_np, dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        if ctx.b_shape is None:
            return (unbroadcast(grad / ctx.scalar, ctx.a_shape),)
        a, b = ctx.saved_tensors
        needs_a, needs_b = ctx.needs_input_grad
        b_np = b._compute()
        ga = unbroadcast(grad / b_np, ctx.a_shape) if needs_a else None
        gb = (
            unbroadcast(-grad * a._compute() / (b_np * b_np), ctx.b_shape) if needs_b else None
        )
        return (ga, gb)


class Neg(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        return make_result(-a._compute(), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (-grad,)


class Pow(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, exponent: float) -> Tensor:
        ctx.exponent = float(exponent)
        ctx.save_for_backward(a)
        return make_result(a._compute() ** ctx.exponent, a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (a,) = ctx.saved_tensors
        p = ctx.exponent
        return (grad * p * a._compute() ** (p - 1.0),)


class Exp(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        out = make_result(np.exp(a._compute()), a.dtype, a.device)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (out,) = ctx.saved_tensors
        return (grad * out._compute(),)


class Log(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        ctx.save_for_backward(a)
        return make_result(np.log(a._compute()), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (a,) = ctx.saved_tensors
        return (grad / a._compute(),)


class Sqrt(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        out = make_result(np.sqrt(a._compute()), a.dtype, a.device)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (out,) = ctx.saved_tensors
        return (grad / (2.0 * out._compute()),)


class Abs(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        a_np = a._compute()
        ctx.sign = np.sign(a_np)
        return make_result(np.abs(a_np), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (grad * ctx.sign,)


class Clip(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, low: float | None, high: float | None) -> Tensor:
        a_np = a._compute()
        out = np.clip(a_np, low, high)
        # Pass-through mask: gradient flows only where the value was kept.
        ctx.mask = (out == a_np).astype(a.dtype.np_compute)
        return make_result(out, a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (grad * ctx.mask,)
