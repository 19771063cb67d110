"""Normalization (RMSNorm, the LLaMA choice)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import ops
from repro.tensor.dtype import DType, float32, get_dtype
from repro.tensor.tensor import Tensor


class RMSNorm(Module):
    """Root-mean-square normalization: ``x / rms(x) * g``."""

    def __init__(
        self, dim: int, eps: float = 1e-5, dtype: DType | str = float32
    ) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        dt = get_dtype(dtype)
        self.weight = Parameter.wrap(
            Tensor.from_numpy(np.ones(dim, dtype=np.float32), dtype=dt)
        )

    def forward(self, x: Tensor) -> Tensor:
        return ops.rms_norm(x, self.weight, self.eps)
