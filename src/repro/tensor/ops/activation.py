"""Nonlinearities.

``Softmax`` is the op at the centre of the paper: DKM's attention map *is* a
softmax output saved for backward, and its ``O(|W|·|C|)`` saved tensor is
what eDKM compresses.  SiLU is no op of its own: :func:`silu_gate` is the
epilogue of the SwiGLU MLP's one op (:class:`~repro.tensor.ops.matmul.SwiGLU`),
which saves its inputs and not the activations between them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function
from repro.tensor.dtype import DType, promote
from repro.tensor.pairwise import stable_softmax, sum_keepdims
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import make_result, normalize_dim


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic without exp overflow on either tail, in whole-array passes.

    ``e = exp(-|x|)`` never overflows; ``x >= 0`` takes ``1 / (1 + e)`` and
    ``x < 0`` takes ``e / (1 + e)`` -- the two branch formulas evaluated
    elementwise instead of gathered and scattered through boolean masks.
    ``minimum(x, -x)`` rather than ``-abs(x)`` keeps a NaN's sign bit.  The
    numerator is ``maximum(e, x >= 0)``: 1 where ``x >= 0`` (``e <= 1``
    there), ``e`` where ``x < 0``, and a NaN propagates -- no select on the
    sign mask, whose data-dependent branch cost more than the rest of the
    kernel.  ``out=`` keeps a 0-d input's result a 0-d array.
    """
    # A typed one: a python 1.0 would promote a 0-d input's scalars to
    # float64 under numpy < 2 and round twice.
    one = x.dtype.type(1)
    e = np.exp(np.minimum(x, -x))
    out = np.maximum(e, x >= 0, out=np.empty(x.shape, x.dtype))
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


def _silu(g: np.ndarray, dtype: DType) -> tuple[np.ndarray, np.ndarray]:
    """``(sigmoid(g), silu(g))`` for compute-precision ``g``, silu on ``dtype``'s grid."""
    sig = _stable_sigmoid(g)
    return sig, dtype.project(g * sig)


def silu_gate(
    gate: np.ndarray, gate_dtype: DType, up: np.ndarray, up_dtype: DType
) -> tuple[np.ndarray, DType]:
    """``silu(gate) * up`` and its dtype: the epilogue of ``SwiGLU``.

    ``gate`` is the gate gemm in compute precision, on its dtype's grid,
    and ``up`` is the raw up-projection gemm.  Each factor is rounded onto
    its own dtype's grid and the product is taken in their promoted dtype,
    as a ``silu`` op and a ``mul`` op would store and read them, so a
    caller that computes both gemms itself (the served palette path) gets
    the op's bytes.
    """
    dtype = promote(gate_dtype, up_dtype)
    _, silu = _silu(gate, gate_dtype)
    up = up_dtype.project(up)
    out = silu.astype(dtype.np_compute, copy=False) * up.astype(dtype.np_compute, copy=False)
    return out, dtype
