"""LLM-QAT-style quantization-aware training (Liu et al., 2023).

Weights pass through a fake-quantizer on every forward; the backward uses a
straight-through estimator (identity gradient), so the optimizer learns
weights that sit well on the quantization grid.  Structurally this is the
uniform-grid sibling of DKM's non-linear clustering and shares the
fine-tuning loop.  The grid is symmetric and per-channel (one scale per
output row); :func:`~repro.baselines.frontend.quantize` freezes onto the
same grid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.common import fake_quantize
from repro.nn import Linear, Module
from repro.nn.linear import apply_projection
from repro.tensor.autograd import Context, Function
from repro.tensor.tensor import Tensor


class FakeQuantSTE(Function):
    """Project onto the uniform grid forward; identity gradient backward."""

    @staticmethod
    def forward(ctx: Context, weight: Tensor, bits: int) -> Tensor:
        from repro.tensor.ops._common import make_result

        projected = fake_quantize(weight._compute(), bits)
        return make_result(projected, weight.dtype, weight.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (grad,)


class QATLinear(Module):
    """A Linear whose weight is fake-quantized on every forward."""

    def __init__(self, inner: Linear, bits: int) -> None:
        super().__init__()
        self.inner = inner
        self.bits = bits

    @property
    def bias(self) -> Tensor | None:
        """The wrapped Linear's bias."""
        return self.inner.bias

    def gemm_weight(self) -> Tensor:
        """The fake-quantized weight."""
        return FakeQuantSTE.apply(self.inner.weight, self.bits)

    def forward(self, x: Tensor, gate: Module | None = None) -> Tensor:
        return apply_projection(x, self, gate)

    def __repr__(self) -> str:
        return f"QATLinear({self.inner!r}, bits={self.bits})"
