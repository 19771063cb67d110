"""Shared plumbing for op implementations."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.tensor.device import Device
from repro.tensor.dtype import DType, promote
from repro.tensor.tensor import Tensor


# An op's result wraps its kernel's fresh array without copying it
# (``Tensor.adopt``): an op whose numpy result can alias an input copies
# explicitly before it gets here.
make_result = Tensor.adopt


def normalize_dim(dim: int, ndim: int) -> int:
    """``dim`` as an index into ``ndim`` axes; negative counts from the end."""
    if not -ndim <= dim < ndim:
        raise IndexError(
            f"dimension out of range (expected [{-ndim}, {ndim - 1}], got {dim})"
        )
    return dim % ndim


def check_same_device(*tensors: Tensor) -> Device:
    """All-tensor device agreement check; returns the common device."""
    dev = tensors[0].device
    for t in tensors[1:]:
        if t.device != dev:
            raise RuntimeError(
                "expected all tensors on the same device, got "
                f"{[x.device.name for x in tensors]}; move them explicitly "
                "with .to()"
            )
    return dev


def binary_operands(a: Tensor, b: Any) -> tuple[np.ndarray, np.ndarray, DType, bool]:
    """Resolve the numpy operands, result dtype and tensor-ness of ``b``."""
    if isinstance(b, Tensor):
        check_same_device(a, b)
        out_dtype = promote(a.dtype, b.dtype)
        return (
            a._np().astype(out_dtype.np_compute, copy=False),
            b._np().astype(out_dtype.np_compute, copy=False),
            out_dtype,
            True,
        )
    out_dtype = a.dtype
    return (
        a._np().astype(out_dtype.np_compute, copy=False),
        np.asarray(b, dtype=out_dtype.np_compute),
        out_dtype,
        False,
    )
