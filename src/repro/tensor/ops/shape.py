"""Shape and layout operations.

The view family (``View``, ``Transpose``, ``Permute``, ``Expand``, ``Slice``)
is *storage-invariant*: outputs share the input's data storage, exactly the
edge class eDKM's marshaling walks when it searches the forward graph for a
tensor whose storage has already been copied to the CPU (paper Section 2.1).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.tensor.autograd import Context, Function, unbroadcast
from repro.tensor.tensor import Tensor, contiguous_strides
from repro.tensor.ops._common import check_same_device, make_result, normalize_dim


def resolve_shape(shape: Sequence[int], numel: int) -> tuple[int, ...]:
    """Resolve at most one ``-1`` placeholder against ``numel``."""
    shape = list(shape)
    negatives = [i for i, s in enumerate(shape) if s == -1]
    if len(negatives) > 1:
        raise ValueError(f"only one -1 allowed in shape, got {tuple(shape)}")
    if negatives:
        known = 1
        for s in shape:
            if s != -1:
                known *= s
        if known == 0 or numel % known != 0:
            raise ValueError(f"cannot infer -1 in {tuple(shape)} for {numel} elements")
        shape[negatives[0]] = numel // known
    total = 1
    for s in shape:
        total *= s
    if total != numel:
        raise ValueError(f"shape {tuple(shape)} incompatible with {numel} elements")
    return tuple(shape)


class View(Function):
    storage_invariant = True

    @staticmethod
    def forward(ctx: Context, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        if not a.is_contiguous():
            raise RuntimeError(
                "view() requires a contiguous tensor; call .reshape() or "
                ".contiguous() first"
            )
        new_shape = resolve_shape(shape, a.numel)
        ctx.in_shape = a.shape
        return Tensor.view_of(a, new_shape, contiguous_strides(new_shape), a.offset)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (grad.reshape(ctx.in_shape),)


class Transpose(Function):
    storage_invariant = True

    @staticmethod
    def forward(ctx: Context, a: Tensor, dim0: int, dim1: int) -> Tensor:
        dim0, dim1 = normalize_dim(dim0, a.ndim), normalize_dim(dim1, a.ndim)
        ctx.dims = (dim0, dim1)
        shape = list(a.shape)
        strides = list(a.strides)
        shape[dim0], shape[dim1] = shape[dim1], shape[dim0]
        strides[dim0], strides[dim1] = strides[dim1], strides[dim0]
        return Tensor.view_of(a, shape, strides, a.offset)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        dim0, dim1 = ctx.dims
        return (np.swapaxes(grad, dim0, dim1),)


class Permute(Function):
    storage_invariant = True

    @staticmethod
    def forward(ctx: Context, a: Tensor, dims: tuple[int, ...]) -> Tensor:
        dims = tuple(normalize_dim(d, a.ndim) for d in dims)
        if sorted(dims) != list(range(a.ndim)):
            raise ValueError(f"invalid permutation {dims} for ndim {a.ndim}")
        ctx.dims = dims
        shape = tuple(a.shape[d] for d in dims)
        strides = tuple(a.strides[d] for d in dims)
        return Tensor.view_of(a, shape, strides, a.offset)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        inverse = np.argsort(ctx.dims)
        return (np.transpose(grad, inverse),)


class Expand(Function):
    storage_invariant = True

    @staticmethod
    def forward(ctx: Context, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        if len(shape) < a.ndim:
            raise ValueError(f"expand to fewer dims: {a.shape} -> {shape}")
        ctx.in_shape = a.shape
        lead = len(shape) - a.ndim
        new_strides = [0] * lead
        new_shape = list(shape)
        for i, (src, dst) in enumerate(zip(a.shape, shape[lead:])):
            if dst == -1 or dst == src:
                new_shape[lead + i] = src
                new_strides.append(a.strides[i])
            elif src == 1:
                new_strides.append(0)
            else:
                raise ValueError(f"cannot expand dim of size {src} to {dst}")
        return Tensor.view_of(a, new_shape, new_strides, a.offset)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (unbroadcast(grad, ctx.in_shape),)


class Slice(Function):
    """Basic indexing (ints, slices with positive step, None, Ellipsis)."""

    storage_invariant = True

    @staticmethod
    def forward(ctx: Context, a: Tensor, key: Any) -> Tensor:
        normalized = _normalize_key(key, a.ndim)
        ctx.in_shape = a.shape
        ctx.key = tuple(k for k in normalized if k is not None)

        shape: list[int] = []
        strides: list[int] = []
        offset = a.offset
        axis = 0
        for item in normalized:
            if item is None:
                shape.append(1)
                strides.append(0)
                continue
            size = a.shape[axis]
            stride = a.strides[axis]
            if isinstance(item, int):
                idx = item if item >= 0 else item + size
                if not 0 <= idx < size:
                    raise IndexError(f"index {item} out of range for dim {axis}")
                offset += idx * stride
            else:
                start, stop, step = item.indices(size)
                if step <= 0:
                    raise ValueError("negative slice steps are not supported")
                length = max(0, (stop - start + step - 1) // step)
                shape.append(length)
                strides.append(stride * step)
                offset += start * stride
            axis += 1
        # Remaining axes are taken whole.
        shape.extend(a.shape[axis:])
        strides.extend(a.strides[axis:])
        return Tensor.view_of(a, shape, strides, offset)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        out = np.zeros(ctx.in_shape, dtype=grad.dtype)
        view_shape = out[ctx.key].shape
        out[ctx.key] = grad.reshape(view_shape)
        return (out,)


def _normalize_key(key: Any, ndim: int) -> list[Any]:
    """Expand Ellipsis and validate a basic-indexing key."""
    if not isinstance(key, tuple):
        key = (key,)
    if any(isinstance(k, (list, np.ndarray, Tensor)) for k in key):
        raise TypeError(
            "advanced (array) indexing is not supported by __getitem__; "
            "use ops.index_select / ops.take_along_dim"
        )
    n_ellipsis = sum(1 for k in key if k is Ellipsis)
    if n_ellipsis > 1:
        raise IndexError("at most one Ellipsis allowed")
    consumed = sum(1 for k in key if k is not None and k is not Ellipsis)
    if consumed > ndim:
        raise IndexError(f"too many indices ({consumed}) for ndim {ndim}")
    out: list[Any] = []
    for k in key:
        if k is Ellipsis:
            out.extend([slice(None)] * (ndim - consumed))
        else:
            out.append(k)
    return out


class Cat(Function):
    @staticmethod
    def forward(ctx: Context, *tensors: Tensor, dim: int = 0) -> Tensor:
        if not tensors:
            raise ValueError("cat of zero tensors")
        check_same_device(*tensors)
        dim = normalize_dim(dim, tensors[0].ndim)
        ctx.dim = dim
        ctx.sizes = [t.shape[dim] for t in tensors]
        dtype = tensors[0].dtype
        out = np.concatenate([t._compute() for t in tensors], axis=dim)
        return make_result(out, dtype, tensors[0].device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        splits = np.cumsum(ctx.sizes)[:-1]
        return tuple(np.array_split(grad, splits, axis=ctx.dim))


class Contiguous(Function):
    @staticmethod
    def forward(ctx: Context, a: Tensor) -> Tensor:
        # ``copy()``, not ``ascontiguousarray``: a contiguous input must not
        # hand back its own buffer.
        return make_result(a._np().copy(), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (grad,)
