"""Collectives over a :class:`~repro.distributed.learner.LearnerGroup`.

Data movement is real -- one byte copy per collective between device-tagged
buffers: ``shard_rows`` copies the source's bytes once into the flat buffer
a :class:`ShardedTensor` owns and ``all_gather`` copies that buffer once
into a fresh destination storage, with no value-level round trip (no dtype
projection, no per-shard slicing, no concatenation), so what arrives is
bit-for-bit what was sent.  Every transfer is logged in the global traffic
ledger, one row per learner, so experiments can report the communication
cost the paper acknowledges for uniquification and sharding ("the sharded
weights need to be all-gathered").

Simulation detail: the per-learner memory domains are the learners'
*trackers*, not buffers -- each is charged the logical bytes of its rows,
while the rows of all learners sit side by side in one host array.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.distributed.learner import LearnerGroup
from repro.memory.traffic import global_ledger
from repro.tensor.device import Device
from repro.tensor.dtype import DType
from repro.tensor.storage import Storage
from repro.tensor.tensor import Tensor, contiguous_strides


class ShardView(NamedTuple):
    """One learner's rows of a :class:`ShardedTensor`, for inspection:
    ``data`` is a read-only window onto the owner's buffer, so looking at a
    shard allocates nothing and charges no tracker."""

    device: Device
    shape: tuple[int, ...]
    data: np.ndarray


class ShardedTensor:
    """A tensor row-partitioned across the learners of a group.

    One owned flat buffer holds the rows in order; ``counts[i]`` of its
    elements belong to learner ``i`` and are charged, once, to
    ``group.devices[i]``'s tracker for as long as this object lives.  The
    logical tensor is the buffer reshaped to ``full_shape``.
    """

    __slots__ = ("data", "dtype", "group", "full_shape", "counts", "learner_nbytes", "__weakref__")

    def __init__(
        self,
        data: np.ndarray,
        dtype: DType,
        group: LearnerGroup,
        full_shape: tuple[int, ...],
        counts: list[int],
    ) -> None:
        if len(counts) != group.n_learners:
            raise ValueError(f"{len(counts)} shards for {group.n_learners} learners")
        if data.shape != (sum(counts),) or data.dtype != dtype.np_storage:
            raise ValueError(
                f"buffer {data.dtype}{data.shape} is not {sum(counts)} flat "
                f"{dtype.name} elements"
            )
        self.data = data
        self.dtype = dtype
        self.group = group
        self.full_shape = tuple(full_shape)
        self.counts = tuple(counts)
        learner_nbytes = tuple(count * dtype.itemsize for count in counts)
        for dev, nbytes in zip(group.devices, learner_nbytes):
            dev.tracker.allocate(nbytes)
        # Logical bytes charged to each learner, in learner order.  Set only
        # once charged: ``__del__`` releases what this slot holds.
        self.learner_nbytes = learner_nbytes

    def __del__(self) -> None:
        try:
            learner_nbytes = self.learner_nbytes
        except AttributeError:  # the constructor rejected the buffer
            return
        for dev, nbytes in zip(self.group.devices, learner_nbytes):
            dev.tracker.release(nbytes)

    @property
    def local_nbytes(self) -> int:
        """Learner 0's bytes (the footprint experiments report)."""
        return self.learner_nbytes[0]

    def shard_views(self) -> list[ShardView]:
        """Per-learner device, shape and read-only data, in learner order."""
        tail = self.full_shape[1:]
        row_elems = math.prod(tail)
        window = self.data.view()
        window.flags.writeable = False
        views = []
        lo = 0
        for dev, count in zip(self.group.devices, self.counts):
            rows = count // row_elems if row_elems else 0
            views.append(ShardView(dev, (rows, *tail), window[lo : lo + count]))
            lo += count
        return views

    def __repr__(self) -> str:
        return (
            f"ShardedTensor(full_shape={self.full_shape}, "
            f"n_shards={len(self.counts)}, dtype={self.dtype.name})"
        )


def _scatter(
    data: np.ndarray,
    dtype: DType,
    shape: tuple[int, ...],
    src: Device,
    group: LearnerGroup,
    tag: str,
) -> ShardedTensor:
    """Hand ``data``, a fresh flat copy of ``shape``, to the group's learners."""
    row_elems = math.prod(shape[1:])
    base, extra = divmod(shape[0], group.n_learners)
    counts = [(base + (i < extra)) * row_elems for i in range(group.n_learners)]
    sharded = ShardedTensor(data, dtype, group, shape, counts)
    ledger = global_ledger()
    for dev, nbytes in zip(group.devices, sharded.learner_nbytes):
        if dev.name != src.name:
            ledger.record(src.name, dev.name, nbytes, tag=tag)
    return sharded


def shard_rows(tensor: Tensor, group: LearnerGroup, tag: str = "shard") -> ShardedTensor:
    """Partition ``tensor`` row-wise onto the group's devices.

    Row counts follow ``np.array_split``: the first ``rows % n`` shards get
    one extra row.  The transfer of every non-local shard is logged
    (learner 0 scatters to its peers in the synchronous setup).
    """
    data = np.array(tensor._np(), order="C").reshape(-1)
    return _scatter(data, tensor.dtype, tensor.shape, tensor.device, group, tag)


def shard_storage(storage: Storage, group: LearnerGroup, tag: str = "shard") -> ShardedTensor:
    """:func:`shard_rows` over a storage's whole flat buffer."""
    return _scatter(
        storage.data.copy(), storage.dtype, (storage.numel,), storage.device, group, tag
    )


def all_gather(
    sharded: ShardedTensor, device: Device, tag: str = "all_gather"
) -> Tensor:
    """Reassemble the full tensor on ``device``, logging per-shard traffic."""
    full_shape = sharded.full_shape
    if sharded.data.size != math.prod(full_shape):
        raise ValueError(
            f"shards hold {sharded.data.size} elements, "
            f"full shape {full_shape} needs {math.prod(full_shape)}"
        )
    ledger = global_ledger()
    for dev, nbytes in zip(sharded.group.devices, sharded.learner_nbytes):
        if dev.name != device.name:
            ledger.record(dev.name, device.name, nbytes, tag=tag)
    return Tensor(
        Storage(sharded.data.copy(), sharded.dtype, device),
        full_shape,
        contiguous_strides(full_shape),
    )
