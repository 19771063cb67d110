"""Integer indexing ops.

``IndexSelect`` is the gather primitive: embeddings in the LLM substrate and
the attention-table lookup in eDKM's uniquification (``table[index_list]``)
both reduce to it.  Its saved index tensor is exactly the "index list" of the
paper's Fig. 3.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function, unbroadcast
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import check_same_device, make_result, normalize_dim
from repro.tensor.ops.segment import scatter_add_rows

# Widest row (trailing element count) the bincount scatter path accepts in
# IndexSelect.backward; past this the per-chunk full-domain bincount buffer
# costs more than the dtype-matched np.add.at it would replace.
MAX_BINCOUNT_ROW_WIDTH = 64


class IndexSelect(Function):
    """``weight[indices]`` along dim 0 with integer index tensor."""

    @staticmethod
    def forward(ctx: Context, weight: Tensor, indices: Tensor) -> Tensor:
        check_same_device(weight, indices)
        if indices.dtype.is_floating:
            raise TypeError("indices must be an integer tensor")
        idx = indices._np()
        if idx.size and (idx.min() < 0 or idx.max() >= weight.shape[0]):
            raise IndexError(
                f"index out of range [0, {weight.shape[0]}) in index_select"
            )
        ctx.weight_shape = weight.shape
        ctx.save_for_backward(indices)
        return make_result(weight._compute()[idx], weight.dtype, weight.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (indices,) = ctx.saved_tensors
        idx = indices._np().reshape(-1).astype(np.int64, copy=False)
        num_rows = ctx.weight_shape[0]
        row_width = int(np.prod(ctx.weight_shape[1:], dtype=np.int64))
        if idx.size < num_rows or row_width > MAX_BINCOUNT_ROW_WIDTH:
            # Sparse-tall gather (embedding backward: a few thousand tokens
            # into a 32k-row table) or wide rows: the full-domain bincount
            # would allocate and scan num_rows*width float64 slots per
            # chunk for comparatively few contributions -- measured 4x
            # slower at vocab 16k x 1024.  The dtype-matched np.add.at
            # stays on numpy's vectorized indexed loop there.
            g = np.zeros(ctx.weight_shape, dtype=grad.dtype)
            np.add.at(g, idx, grad.reshape((idx.size,) + ctx.weight_shape[1:]))
            return (g, None)
        # Dense narrow gather (duplicates dominate, as in eDKM's
        # table[index_list]): one bincount pass over the composite
        # row*width key with float64 accumulation.
        g = scatter_add_rows(idx, grad.reshape(idx.size, row_width), num_rows)
        return (g.reshape(ctx.weight_shape).astype(grad.dtype, copy=False), None)


class TakeAlongDim(Function):
    """``np.take_along_axis`` with gradient (used by cross-entropy)."""

    @staticmethod
    def forward(ctx: Context, a: Tensor, indices: Tensor, dim: int) -> Tensor:
        check_same_device(a, indices)
        dim = normalize_dim(dim, a.ndim)
        ctx.dim = dim
        ctx.in_shape = a.shape
        ctx.save_for_backward(indices)
        out = np.take_along_axis(
            a._compute(), indices._np().astype(np.int64, copy=False), axis=dim
        )
        return make_result(out, a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        (indices,) = ctx.saved_tensors
        g = np.zeros(ctx.in_shape, dtype=grad.dtype)
        idx = indices._np().astype(np.int64, copy=False)
        # Accumulating scatter: duplicate indices must sum their grads.
        # Deliberately NOT a bincount: a take-along gather touches at most
        # grad.size slots of a domain that is typically orders of magnitude
        # larger (cross-entropy picks 1 of |vocab| per row), and bincount
        # must allocate and scan every slot of that domain -- measured
        # ~100x slower than this dtype-matched np.add.at on LLM shapes.
        np.add.at(g, _along_axis_key(idx, ctx.dim, ctx.in_shape), grad)
        return (g, None)


def _along_axis_key(
    idx: np.ndarray, dim: int, shape: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Fancy-index key equivalent to take_along_axis's implicit key."""
    grids = np.ogrid[tuple(slice(s) for s in idx.shape)]
    key = list(np.broadcast_arrays(*grids))
    key[dim] = idx
    return tuple(key)


class MaskedFill(Function):
    """Replace masked positions with ``value`` (no grad through them)."""

    @staticmethod
    def forward(ctx: Context, a: Tensor, mask: np.ndarray, value: float) -> Tensor:
        mask = np.asarray(mask, dtype=bool)
        out = a._compute().copy()
        broadcast_mask = np.broadcast_to(mask, out.shape)
        out[broadcast_mask] = value
        ctx.mask = broadcast_mask
        return make_result(out, a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        g = grad.copy()
        g[ctx.mask] = 0.0
        return (g,)


class Where(Function):
    """Elementwise select between two tensors by a boolean mask."""

    @staticmethod
    def forward(ctx: Context, condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
        check_same_device(a, b)
        cond = np.asarray(condition, dtype=bool)
        out = np.where(cond, a._compute(), b._compute())
        ctx.cond = np.broadcast_to(cond, out.shape)
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        return make_result(out, a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        needs_a, needs_b = ctx.needs_input_grad
        ga = unbroadcast(np.where(ctx.cond, grad, 0.0), ctx.a_shape) if needs_a else None
        gb = unbroadcast(np.where(ctx.cond, 0.0, grad), ctx.b_shape) if needs_b else None
        return (ga, gb)
