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
    """``x @ weight.T + bias``, or with ``gate`` ``silu(gate) * (x @ weight.T)``.

    The gated form is SwiGLU's up projection as one op
    (:func:`~repro.tensor.ops.silu_gated_linear`), which saves only ``x``,
    ``weight`` and ``gate`` for backward; it takes no bias.  Every module
    that can be an up projection computes its output here.
    """
    if gate is None:
        out = x @ weight.T
        return out if bias is None else out + bias
    if bias is not None:
        raise ValueError("a gated up projection takes no bias")
    return ops.silu_gated_linear(x, weight, gate)


class Linear(Module):
    """``y = x @ W.T + b`` with weight of shape ``(out_features, in_features)``.

    The weight layout matches PyTorch so compression code (DKM, GPTQ, AWQ)
    can treat rows as output channels.  ``forward(x, gate=g)`` is the
    gated up projection of :func:`linear`.
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

    def forward(self, x: Tensor, gate: Tensor | None = None) -> Tensor:
        return linear(x, self.weight, self.bias, gate)

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
