"""Cross-device movement and dtype casting.

``ToDevice`` is the operation the whole paper revolves around: it must
allocate a *new* storage on the destination (data storage cannot be shared
across devices) and it logs its bytes in the global traffic ledger.  Two
views of one GPU storage moved separately produce two independent CPU
storages -- the redundancy of Table 1 that marshaling removes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.memory.traffic import global_ledger
from repro.tensor.autograd import Context, Function
from repro.tensor.device import Device
from repro.tensor.dtype import DType
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import make_result


class ToDevice(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, dst: Device, tag: str = "") -> Tensor:
        ctx.src = a.device
        # Materialize this tensor's data contiguously on the destination.
        out = Tensor.from_numpy(a._np(), dtype=a.dtype, device=dst)
        global_ledger().record(a.device.name, dst.name, out.nbytes, tag=tag)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        # Gradients are plain numpy during backward; the reverse transfer is
        # still logged so traffic accounting covers both directions.
        global_ledger().record(
            "grad", ctx.src.name, int(grad.size * grad.itemsize), tag="backward"
        )
        return (grad,)


class Cast(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor, dtype: DType) -> Tensor:
        ctx.was_floating = a.dtype.is_floating
        values = dtype.project(a._np())
        # Between dtypes sharing a physical buffer type with nothing to
        # round (bf16 -> float32, or to ``a``'s own dtype) the projection
        # is ``a``'s buffer itself.
        if np.may_share_memory(values, a.storage.data):
            values = values.copy()
        return make_result(values, dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        # Straight-through across float widths; no grad into integer sources.
        return (grad if ctx.was_floating else None,)
