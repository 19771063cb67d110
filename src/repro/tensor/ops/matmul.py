"""Matrix multiplication with batch broadcasting.

An N-D activation times a 2-D weight -- what every ``Linear`` does -- is
one ``(prod(lead), K) @ (K, N)`` gemm: ``np.matmul`` would broadcast it as
``prod(lead[:-1])`` separate gemms and backward would stack as many
per-batch weight gradients only to sum them.  N-D x N-D operands
(attention) keep numpy's batch broadcast.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function
from repro.tensor.dtype import promote
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import check_same_device, make_result


def _unbroadcast_batch(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the batch dims ``np.matmul`` broadcast, leaving the matrix dims."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i in range(grad.ndim - 2) if shape[i] == 1 and grad.shape[i] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _rows(array: np.ndarray) -> np.ndarray:
    """``array`` with its leading dims collapsed into one row axis."""
    return array.reshape(math.prod(array.shape[:-1]), array.shape[-1])


def _is_one_gemm(a: Tensor, b: Tensor) -> bool:
    """Whether ``a @ b`` is an N-D activation times a 2-D weight."""
    return b.ndim == 2 and a.ndim > 2


class MatMul(Function):
    """``a @ b`` for operands with ``ndim >= 2`` (wrappers handle vectors)."""

    @staticmethod
    def forward(ctx: Context, a: Tensor, b: Tensor) -> Tensor:
        check_same_device(a, b)
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(
                f"MatMul requires ndim >= 2 operands, got {a.ndim} and {b.ndim}"
            )
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        dtype = promote(a.dtype, b.dtype)
        ctx.save_for_backward(a, b)
        a_np = a._np().astype(dtype.np_compute, copy=False)
        b_np = b._np().astype(dtype.np_compute, copy=False)
        if _is_one_gemm(a, b):
            out = np.matmul(_rows(a_np), b_np).reshape(a.shape[:-1] + b.shape[-1:])
        else:
            out = np.matmul(a_np, b_np)
        return make_result(out, dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        a, b = ctx.saved_tensors
        needs_a, needs_b = ctx.needs_input_grad
        # Strided views go to BLAS as transpose flags; no contiguous copies.
        a_np = a._np().astype(grad.dtype, copy=False)
        b_np = b._np().astype(grad.dtype, copy=False)
        ga = gb = None
        if _is_one_gemm(a, b):
            grad = _rows(grad)
            if needs_a:
                ga = np.matmul(grad, b_np.T).reshape(a.shape)
            if needs_b:
                gb = np.matmul(_rows(a_np).T, grad)
        else:
            if needs_a:
                ga = _unbroadcast_batch(np.matmul(grad, np.swapaxes(b_np, -1, -2)), a.shape)
            if needs_b:
                gb = _unbroadcast_batch(np.matmul(np.swapaxes(a_np, -1, -2), grad), b.shape)
        return (ga, gb)
