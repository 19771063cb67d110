"""Root-mean-square normalization as one op."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function
from repro.tensor.dtype import promote
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import check_same_device, make_result


def _row_rms(x: np.ndarray, eps: float) -> np.ndarray:
    """``sqrt(mean(x·x) + eps)`` over the last axis of C-contiguous ``x``, as a column."""
    rms = (x * x).mean(axis=-1, keepdims=True)
    rms += x.dtype.type(eps)
    return np.sqrt(rms, out=rms)


class RmsNorm(Function):
    """``a / sqrt(mean(a·a) + eps) · weight`` over the last axis.

    Forward is that elementwise sequence, each step rounded on its own in
    the compute precision of ``promote(a.dtype, weight.dtype)``; a 16-bit
    result is projected once on the way out, as ``MatMul`` and ``Softmax``
    do.  Backward saves ``a`` and ``weight`` only and recomputes the row
    rms: with ``r = 1 / rms`` and ``h = grad · weight``,
    ``d a = r·h − a · r³ · mean(h·a)`` and ``d weight = Σ_rows grad · a · r``.
    """

    op_name = "rms_norm"

    @staticmethod
    def forward(ctx: Context, a: Tensor, weight: Tensor, eps: float) -> Tensor:
        check_same_device(a, weight)
        if weight.shape != a.shape[-1:]:
            raise ValueError(
                f"rms_norm weight {weight.shape} does not match the last axis of {a.shape}"
            )
        dtype = promote(a.dtype, weight.dtype)
        ctx.eps = eps
        ctx.save_for_backward(a, weight)
        x = np.ascontiguousarray(a._np(), dtype=dtype.np_compute)
        out = x / _row_rms(x, eps)
        out *= weight._np().astype(dtype.np_compute, copy=False)
        return make_result(out, dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        a, weight = ctx.saved_tensors
        needs_a, needs_weight = ctx.needs_input_grad
        x = np.ascontiguousarray(a._np(), dtype=grad.dtype)
        rms = _row_rms(x, ctx.eps)
        normed = x / rms
        ga = gw = None
        if needs_weight:
            gw = (grad * normed).reshape(-1, x.shape[-1]).sum(axis=0)
        if needs_a:
            h = grad * weight._np().astype(grad.dtype, copy=False)
            # r·h − a·r³·mean(h·a) over x̂ = a·r:  r · (h − x̂ · mean(h·x̂))
            normed *= (h * normed).mean(axis=-1, keepdims=True)
            h -= normed
            h /= rms
            ga = h  # grad · weight was a fresh array: finished in place
        return (ga, gw)
