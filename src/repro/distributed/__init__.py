"""Simulated fully-synchronous data-parallel learners.

The paper shards DKM's index list over the learners of an FSDP setup
(8x A100 in their experiments) because fully-synchronous data parallelism
keeps weights -- hence attention maps and index lists -- bit-identical on
every learner at every moment.  This package models that setup: a
:class:`LearnerGroup` is a set of per-learner memory domains, the
collectives move real bytes between them while logging traffic, and
:mod:`repro.distributed.scheduler` holds the byte-balanced placement the
process compression engine pins whole layers to worker slots with (each
slot owning one learner domain).
"""

from repro.distributed.learner import LearnerGroup
from repro.distributed.collective import (
    ShardedTensor,
    all_gather,
    all_reduce_mean,
    broadcast,
    logical_nbytes,
    shard_rows,
)
from repro.distributed.scheduler import NodePlacement, PlacementError

__all__ = [
    "LearnerGroup",
    "NodePlacement",
    "PlacementError",
    "ShardedTensor",
    "all_gather",
    "all_reduce_mean",
    "broadcast",
    "logical_nbytes",
    "shard_rows",
]
