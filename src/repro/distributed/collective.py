"""Collectives over a :class:`~repro.distributed.learner.LearnerGroup`.

Data movement is real -- one byte copy per shard between device-tagged
storages: ``shard_rows`` slices the source buffer straight into per-device
storages and ``all_gather`` writes the shard buffers into one preallocated
destination, with no value-level round trip (no dtype projection, no
intermediate concatenation), so what arrives is bit-for-bit what was sent.
Every transfer is logged in the global traffic ledger, so experiments can
report the communication cost the paper acknowledges for uniquification and
sharding ("the sharded weights need to be all-gathered").
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributed.learner import LearnerGroup
from repro.memory.traffic import global_ledger
from repro.tensor.device import Device
from repro.tensor.dtype import DType
from repro.tensor.storage import Storage
from repro.tensor.tensor import Tensor, contiguous_strides


def logical_nbytes(tensor: Tensor) -> int:
    """Bytes of ``tensor``'s own elements, independent of its storage.

    ``Tensor.nbytes`` reports the *storage* footprint, which a view (a
    row slice, a transpose) shares with every sibling view -- correct for
    memory accounting, wrong for traffic accounting: a collective moves
    only the view's elements, not its whole backing storage.  Every
    ledger record in this module and in the sharded scheduler's
    byte-balanced placement uses this logical size instead.
    """
    return tensor.numel * tensor.dtype.itemsize


class ShardedTensor:
    """A tensor row-partitioned across the learners of a group.

    Shard ``i`` physically resides on ``group.devices[i]``; the logical
    tensor is the concatenation of shards along dim 0.
    """

    def __init__(
        self, shards: list[Tensor], group: LearnerGroup, full_shape: tuple[int, ...]
    ) -> None:
        if len(shards) != group.n_learners:
            raise ValueError(
                f"{len(shards)} shards for {group.n_learners} learners"
            )
        self.shards = shards
        self.group = group
        self.full_shape = tuple(full_shape)

    @property
    def dtype(self) -> DType:
        return self.shards[0].dtype

    @property
    def local_shard(self) -> Tensor:
        """Learner 0's shard (the one whose footprint experiments report)."""
        return self.shards[0]

    @property
    def nbytes_per_learner(self) -> int:
        return max(shard.nbytes for shard in self.shards)

    def __repr__(self) -> str:
        return (
            f"ShardedTensor(full_shape={self.full_shape}, "
            f"n_shards={len(self.shards)}, dtype={self.dtype.name})"
        )


def shard_rows(tensor: Tensor, group: LearnerGroup, tag: str = "shard") -> ShardedTensor:
    """Partition ``tensor`` row-wise onto the group's devices.

    Row counts follow ``np.array_split``: the first ``rows % n`` shards get
    one extra row.  The transfer of every non-local shard is logged
    (learner 0 scatters to its peers in the synchronous setup).
    """
    shape = tensor.shape
    flat = np.ascontiguousarray(tensor._np()).reshape(-1)
    dtype = tensor.dtype
    src = tensor.device
    tail = shape[1:]
    row_elems = math.prod(tail)
    base, extra = divmod(shape[0], group.n_learners)
    ledger = global_ledger()
    shards = []
    lo = 0
    for i, dev in enumerate(group.devices):
        rows = base + (i < extra)
        hi = lo + rows * row_elems
        storage = Storage(flat[lo:hi].copy(), dtype, dev)
        shard_shape = (rows, *tail)
        shards.append(Tensor(storage, shard_shape, contiguous_strides(shard_shape)))
        if dev != src:
            ledger.record(src.name, dev.name, storage.nbytes, tag=tag)
        lo = hi
    return ShardedTensor(shards, group, shape)


def all_gather(
    sharded: ShardedTensor, device: Device, tag: str = "all_gather"
) -> Tensor:
    """Reassemble the full tensor on ``device``, logging per-shard traffic."""
    dtype = sharded.dtype
    full_shape = sharded.full_shape
    out = np.empty(math.prod(full_shape), dtype.np_storage)
    ledger = global_ledger()
    lo = 0
    for shard in sharded.shards:
        piece = shard._np()
        hi = lo + piece.size
        out[lo:hi] = piece.reshape(-1)
        if shard.device != device:
            ledger.record(
                shard.device.name, device.name, logical_nbytes(shard), tag=tag
            )
        lo = hi
    if lo != out.size:
        raise ValueError(
            f"shards hold {lo} elements, full shape {full_shape} needs {out.size}"
        )
    return Tensor(
        Storage(out, dtype, device), full_shape, contiguous_strides(full_shape)
    )


def all_reduce_mean(tensors: list[Tensor], tag: str = "all_reduce") -> None:
    """In-place mean across per-learner replicas (gradient synchronization)."""
    if not tensors:
        raise ValueError("all_reduce_mean over zero tensors")
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise ValueError(f"mismatched replica shapes: {shapes}")
    mean = np.mean([t._compute() for t in tensors], axis=0)
    for t in tensors:
        for other in tensors:
            if other.device != t.device:
                # Logical bytes, not t.nbytes: a replica that is a view
                # of a larger storage exchanges only its own elements.
                global_ledger().record(
                    other.device.name, t.device.name, logical_nbytes(t), tag=tag
                )
        break  # ring cost approximation: one full exchange
    for t in tensors:
        t.copy_(mean)


def broadcast(
    tensor: Tensor,
    group: LearnerGroup,
    tag: str = "broadcast",
    copy_local: bool = False,
) -> list[Tensor]:
    """Replicate ``tensor`` onto every learner device.

    By default the replica on ``tensor``'s own device *is* ``tensor``
    (zero-copy, matching the data-parallel optimizer's contract).  Pass
    ``copy_local=True`` to get an independent copy there too: aliasing
    learner-local state to the master copy means an in-place update
    through the "replica" silently corrupts the source, which the
    sharded scheduler's rejoin path -- re-shipping pristine master
    weights to a respawned node -- cannot tolerate.  The local copy
    moves no bytes either way, so it is never ledgered.
    """
    replicas = []
    for dev in group.devices:
        if dev == tensor.device and not copy_local:
            replicas.append(tensor)
            continue
        replica = Tensor.from_numpy(
            np.array(tensor._np(), copy=True), dtype=tensor.dtype, device=dev
        )
        if dev != tensor.device:
            global_ledger().record(
                tensor.device.name, dev.name, logical_nbytes(replica), tag=tag
            )
        replicas.append(replica)
    return replicas
