"""Simulated fully-synchronous data-parallel learners.

The paper shards DKM's index list over the learners of an FSDP setup
(8x A100 in their experiments) because fully-synchronous data parallelism
keeps weights -- hence attention maps and index lists -- bit-identical on
every learner at every moment.  This package models that setup: a
:class:`LearnerGroup` is a set of per-learner memory domains and the
collectives move real bytes between them while logging traffic.
"""

from repro.distributed.learner import LearnerGroup
from repro.distributed.collective import (
    ShardedTensor,
    ShardView,
    all_gather,
    shard_rows,
    shard_storage,
)

__all__ = [
    "LearnerGroup",
    "ShardedTensor",
    "ShardView",
    "all_gather",
    "shard_rows",
    "shard_storage",
]
