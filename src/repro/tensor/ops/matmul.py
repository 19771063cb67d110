"""Matrix multiplication with batch broadcasting.

An N-D activation times a 2-D weight -- what every ``Linear`` does -- is
one ``(prod(lead), K) @ (K, N)`` gemm: ``np.matmul`` would broadcast it as
``prod(lead[:-1])`` separate gemms and backward would stack as many
per-batch weight gradients only to sum them.  N-D x N-D operands
(attention) keep numpy's batch broadcast.

A product whose contracted dimension is 1 -- an outer product, such as the
map gradient of the dense DKM map's ``(1, k) @ (k, |W|)`` -- is a broadcast
multiply, not a BLAS call.  For that ``(8, 1) x (1, 32 768)`` BLAS takes
436 µs and the multiply 33 µs (float32, one BLAS thread, 2-core VM); a
short last axis, ``(32 768, 1) x (1, 8)``, runs at 0.8× BLAS, and no
training step builds one.  The bytes are the elementwise products', signed
zeros included.  They equal ``np.matmul``'s up to the sign of a zero
product: BLAS accumulates into a ``beta = 0`` output, and
``+0.0 + -0.0`` is ``+0.0``.

``SiluGatedLinear`` is SwiGLU's up projection with its gate applied in the
same op, ``silu(gate) * (x @ weight.T)``: the same gemm, then the
``silu_gate`` epilogue.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function
from repro.tensor.dtype import DType, promote
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import check_same_device, make_result
from repro.tensor.ops.activation import _silu, silu_gate


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


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``; a broadcast multiply when the contracted dimension is 1."""
    if x.shape[-1] == 1:
        return np.multiply(x, y, order="C")
    return np.matmul(x, y)


def _rows(array: np.ndarray) -> np.ndarray:
    """``array`` with its leading dims collapsed into one row axis."""
    return array.reshape(math.prod(array.shape[:-1]), array.shape[-1])


def _is_one_gemm(a: Tensor, b: Tensor) -> bool:
    """Whether ``a @ b`` is an N-D activation times a 2-D weight."""
    return b.ndim == 2 and a.ndim > 2


class MatMul(Function):
    """``a @ b`` for operands with ``ndim >= 2``."""

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
            out = _product(_rows(a_np), b_np).reshape(a.shape[:-1] + b.shape[-1:])
        else:
            out = _product(a_np, b_np)
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
                ga = _product(grad, b_np.T).reshape(a.shape)
            if needs_b:
                gb = _product(_rows(a_np).T, grad)
        else:
            if needs_a:
                ga = _unbroadcast_batch(_product(grad, np.swapaxes(b_np, -1, -2)), a.shape)
            if needs_b:
                gb = _unbroadcast_batch(_product(np.swapaxes(a_np, -1, -2), grad), b.shape)
        return (ga, gb)


def _up_projection(x: Tensor, weight: Tensor, dtype: DType) -> np.ndarray:
    """``x @ weight.T`` as ``MatMul`` computes it, raw (not yet on ``dtype``'s grid)."""
    x_np = x._np().astype(dtype.np_compute, copy=False)
    w_np = weight._np().astype(dtype.np_compute, copy=False)
    return _product(_rows(x_np), w_np.T).reshape(x.shape[:-1] + weight.shape[:1])


class SiluGatedLinear(Function):
    """``silu(gate) * (x @ weight.T)`` -- SwiGLU's up projection, gated.

    Saves only its three inputs.  The up activation and the silu output
    are kernel temporaries that no tensor holds: backward rebuilds both
    from the saved inputs (one gemm and one sigmoid pass), the selective
    recomputation of Korthikanti et al. (arXiv:2205.05198).  Every array
    is computed by the numpy calls, in the order, of the ``x @ weight.T``
    ``MatMul``, ``silu`` and ``mul`` chain it replaces, so the output and
    all three gradients are that chain's, byte for byte.
    """

    @staticmethod
    def forward(ctx: Context, x: Tensor, weight: Tensor, gate: Tensor) -> Tensor:
        check_same_device(x, weight, gate)
        if x.ndim < 2 or weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
            raise ValueError(f"silu_gated_linear shape mismatch: {x.shape} @ {weight.shape}.T")
        if gate.shape != x.shape[:-1] + weight.shape[:1]:
            raise ValueError(
                f"gate shape {gate.shape} does not match the up projection's "
                f"{x.shape[:-1] + weight.shape[:1]}"
            )
        ctx.save_for_backward(x, weight, gate)
        up_dtype = promote(x.dtype, weight.dtype)
        out, dtype = silu_gate(
            gate._compute(), gate.dtype, _up_projection(x, weight, up_dtype), up_dtype
        )
        return make_result(out, dtype, x.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        x, weight, gate = ctx.saved_tensors
        needs_x, needs_weight, needs_gate = ctx.needs_input_grad
        g = gate._compute()
        sig, silu = _silu(g, gate.dtype)
        gx = gw = g_gate = None
        if needs_gate:
            up_dtype = promote(x.dtype, weight.dtype)
            up = up_dtype.project(_up_projection(x, weight, up_dtype))
            g_silu = grad * up.astype(up_dtype.np_compute, copy=False)
            g_gate = g_silu * (sig + g * sig * (1.0 - sig))
        if needs_x or needs_weight:
            g_up = _rows(grad * silu.astype(gate.dtype.np_compute, copy=False))
            # Strided views go to BLAS as transpose flags; no contiguous copies.
            if needs_x:
                w_np = weight._np().astype(g_up.dtype, copy=False)
                gx = _product(g_up, w_np).reshape(x.shape)
            if needs_weight:
                x_np = x._np().astype(g_up.dtype, copy=False)
                gw = _product(_rows(x_np).T, g_up).T
        return (gx, gw, g_gate)
