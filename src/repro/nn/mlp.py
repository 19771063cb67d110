"""SwiGLU feed-forward block (the LLaMA MLP)."""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor.dtype import DType, float32
from repro.tensor.random import default_rng
from repro.tensor.tensor import Tensor


class SwiGLUMLP(Module):
    """``down( silu(gate(x)) * up(x) )`` with three weight matrices."""

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        dtype: DType | str = float32,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or default_rng(0)
        self.dim = dim
        self.hidden_dim = hidden_dim
        self.gate_proj = Linear(dim, hidden_dim, bias=False, dtype=dtype, rng=rng)
        self.up_proj = Linear(dim, hidden_dim, bias=False, dtype=dtype, rng=rng)
        self.down_proj = Linear(hidden_dim, dim, bias=False, dtype=dtype, rng=rng)

    def forward(self, x: Tensor, norm: Module | None = None) -> Tensor:
        """``down(silu(gate(h)) * up(h))`` for ``h = norm(x)``, or ``x`` itself.

        ``up_proj`` takes the gate module (``gate=``): the gate and up
        projections and their product are one op, which saves ``h`` and the
        two weights, so neither the gate, its silu nor the up activation is
        ever a tensor.  A pre-norm block passes its norm rather than a
        normed input: then this frame holds the only reference to ``h`` and
        drops it before ``down_proj``.  Whatever backward needs autograd has
        saved (on the host, under the eDKM pipeline), so a name kept past
        its last read only holds device bytes.
        """
        h = x if norm is None else norm(x)
        hidden = self.up_proj(h, gate=self.gate_proj)
        del h
        return self.down_proj(hidden)
