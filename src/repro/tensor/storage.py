"""Tensor data storage.

A :class:`Storage` is a flat, device-tagged buffer, mirroring PyTorch's
``UntypedStorage``.  Tensors are (shape, strides, offset) metadata over a
storage; view operations share the storage, which is why they cost no device
memory (Table 1 of the paper, lines 0-1), while a cross-device move must
allocate a fresh storage on the destination (lines 2-3).

Byte accounting happens here: allocation charges ``numel * dtype.itemsize``
logical bytes to the owning device's tracker, and ``__del__`` releases them
when the buffer is garbage collected.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.device import Device
from repro.tensor.dtype import DType


class Storage:
    """A 1-D physical buffer charged against a device tracker."""

    __slots__ = (
        "data",
        "dtype",
        "device",
        "nbytes",
        "version",
        "__weakref__",
    )

    def __init__(self, data: np.ndarray, dtype: DType, device: Device) -> None:
        if data.ndim != 1:
            raise ValueError(f"storage buffer must be 1-D, got shape {data.shape}")
        if data.dtype != dtype.np_storage:
            raise ValueError(
                f"buffer dtype {data.dtype} does not match physical dtype "
                f"{dtype.np_storage} of {dtype.name}"
            )
        self.data = data
        self.dtype = dtype
        self.device = device
        # In-place write counter (PyTorch ``_version`` analogue).  Bumped by
        # every Tensor in-place mutation; per-layer step caches key on it to
        # detect optimizer writes between training steps.
        self.version = 0
        nbytes = data.size * dtype.itemsize
        device.tracker.allocate(nbytes)
        # Set only once charged: ``__del__`` releases what this slot holds.
        self.nbytes = nbytes

    def __del__(self) -> None:
        try:
            nbytes = self.nbytes
        except AttributeError:  # the constructor rejected the buffer
            return
        self.device.tracker.release(nbytes)

    @property
    def numel(self) -> int:
        return int(self.data.size)

    def bump_version(self) -> None:
        """Record an in-place write to the buffer.

        Writers (optimizer steps, ``copy_``) run on the thread that owns the
        training loop; another thread (the serving scheduler) only *reads*
        weights, and a stale read of ``version`` merely causes a
        step-cache recompute, never a wrong hit -- the cache validates the
        full (storage, version, view) key under its own lock.
        """
        self.version += 1

    @classmethod
    def from_values(cls, values: np.ndarray, dtype: DType, device: Device) -> "Storage":
        """Allocate a storage holding ``values`` projected onto ``dtype``."""
        flat = dtype.project(values).reshape(-1)
        # Always own the buffer: the caller's array may alias something else.
        # A projection or dtype conversion is already a fresh array; copying
        # it again would only double the cost of every ``from_numpy``.
        if np.may_share_memory(flat, values):
            flat = flat.copy()
        return cls(flat, dtype, device)

    def clone_to(self, device: Device) -> "Storage":
        """A byte-for-byte copy of this storage on another (or same) device."""
        return Storage(self.data.copy(), self.dtype, device)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Storage(numel={self.numel}, dtype={self.dtype.name}, "
            f"device={self.device.name}, nbytes={self.nbytes})"
        )
