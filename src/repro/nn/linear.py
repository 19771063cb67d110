"""Dense projection layers."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import ops
from repro.tensor.dtype import DType, float32, get_dtype
from repro.tensor.random import default_rng
from repro.tensor.tensor import Tensor


def linear(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, gate: Tensor | None = None
) -> Tensor:
    """``x @ weight.T + bias``, or with ``gate`` -- the gate projection's
    weight -- SwiGLU's ``silu(x @ gate.T) * (x @ weight.T)``.

    The gated form is the MLP's gate and up projections as one op
    (:func:`~repro.tensor.ops.swiglu`), which saves only ``x`` and the two
    weights for backward; it takes no bias.  Every projection module
    computes its output here, through :func:`apply_projection`.
    """
    if gate is None:
        out = x @ weight.T
        return out if bias is None else out + bias
    if bias is not None:
        raise ValueError("a gated up projection takes no bias")
    return ops.swiglu(x, gate, weight)


def apply_projection(x: Tensor, up: Module, gate: Module | None = None) -> Tensor:
    """``up``'s output for ``x``: :func:`linear` of the weight its gemm reads.

    Each projection module (``Linear``, ``ClusteredLinear``, ``QATLinear``)
    names that weight in its ``gemm_weight()`` and its bias as ``bias``.
    With ``gate``, SwiGLU's gate projection module, this is the gated form
    of :func:`linear`; the gate's weight is built first (for a clustered
    layer, its clustering), then ``up``'s.  A gate takes no bias.
    """
    gate_weight = None
    if gate is not None:
        if gate.bias is not None:
            raise ValueError("a gate projection takes no bias")
        gate_weight = gate.gemm_weight()
    return linear(x, up.gemm_weight(), up.bias, gate_weight)


class Linear(Module):
    """``y = x @ W.T + b`` with weight of shape ``(out_features, in_features)``.

    The weight layout matches PyTorch so compression code (DKM, GPTQ, AWQ)
    can treat rows as output channels.  ``forward(x, gate=gate_proj)`` is
    the gated form of :func:`apply_projection`.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        dtype: DType | str = float32,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or default_rng(0)
        dt = get_dtype(dtype)
        self.in_features = in_features
        self.out_features = out_features
        weight_values = init.kaiming_uniform(
            (out_features, in_features), fan_in=in_features, rng=rng
        )
        self.weight = Parameter.wrap(Tensor.from_numpy(weight_values, dtype=dt))
        if bias:
            self.bias: Parameter | None = Parameter.wrap(
                Tensor.from_numpy(np.zeros(out_features, dtype=np.float32), dtype=dt)
            )
        else:
            self.bias = None

    def gemm_weight(self) -> Tensor:
        """The weight this layer's gemm reads."""
        return self.weight

    def forward(self, x: Tensor, gate: Module | None = None) -> Tensor:
        return apply_projection(x, self, gate)

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


def named_linears(
    model: Module, skip_names: tuple[str, ...] = ()
) -> Iterator[tuple[str, Module, str, Linear]]:
    """Every ``Linear`` below ``model``, in ``named_modules`` order.

    Yields ``(name, parent, attribute, linear)`` and leaves out each Linear
    whose dotted name starts with one of ``skip_names``.  ``parent`` and
    ``attribute`` let a caller swap a wrapper in while the walk runs
    (``setattr(parent, attribute, wrapper)``): each level's children are
    read before any is yielded, and a Linear is never descended into.
    """

    def walk(module: Module, prefix: str) -> Iterator[tuple[str, Module, str, Linear]]:
        for attribute, child in list(module._modules.items()):
            name = f"{prefix}{attribute}"
            if not isinstance(child, Linear):
                yield from walk(child, f"{name}.")
            elif not any(name.startswith(skip) for skip in skip_names):
                yield name, module, attribute, child

    return walk(model, "")


class Embedding(Module):
    """Token embedding table of shape ``(num_embeddings, dim)``."""

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        dtype: DType | str = float32,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or default_rng(0)
        dt = get_dtype(dtype)
        self.num_embeddings = num_embeddings
        self.dim = dim
        values = init.normal((num_embeddings, dim), std=0.02, rng=rng)
        self.weight = Parameter.wrap(Tensor.from_numpy(values, dtype=dt))

    def forward(self, indices: Tensor) -> Tensor:
        return ops.embedding(self.weight, indices)

    def __repr__(self) -> str:
        return f"Embedding(num={self.num_embeddings}, dim={self.dim})"
