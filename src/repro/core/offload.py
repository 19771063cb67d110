"""The eDKM saved-tensor pipeline.

This is the glue that turns the three paper techniques into autograd
behavior, via ``saved_tensors_hooks``:

- **offload** (baseline): every tensor saved for backward on the source
  ("gpu") device is copied to the host ("cpu") and the GPU reference is
  dropped; backward copies it back.  This is the naive CPU-overflow scheme
  the paper starts from.
- **M -- marshaling**: before copying, consult the
  :class:`~repro.core.marshal.MarshalRegistry`; on a hit, store a reference
  to the existing host copy plus view metadata instead of a second copy.
- **S -- sharding**: large host copies are row-partitioned across the
  learner group; backward all-gathers the shards.

U (uniquification) is not a hook: it changes which tensors the DKM op saves
in the first place (see :mod:`repro.core.edkm`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

from repro.core.config import EDKMConfig, PipelineStats
from repro.core.marshal import MarshalRegistry, OffloadEntry
from repro.distributed.collective import ShardedTensor, all_gather, shard_storage
from repro.memory.traffic import global_ledger
from repro.tensor.autograd import saved_tensors_hooks
from repro.tensor.device import CPU, GPU
from repro.tensor.tensor import Tensor


@dataclass
class SavedPayload:
    """Handle stored in a Function context in place of the saved tensor."""

    entry: OffloadEntry | None
    shape: tuple[int, ...] = ()
    strides: tuple[int, ...] = ()
    offset: int = 0
    op_trace: tuple[str, ...] = ()
    passthrough: Tensor | None = None


class SavedTensorPipeline:
    """Installs the eDKM pack/unpack hooks for a training step.

    Usage::

        pipeline = SavedTensorPipeline(config)
        with pipeline.step():
            loss = model(batch)          # saved tensors offloaded per config
            loss.backward()              # and restored on demand

    ``stats`` accumulates across steps; the marshaling registry is scoped to
    a single step (weights change between steps, so stale copies must not be
    reused).
    """

    def __init__(self, config: EDKMConfig) -> None:
        self.config = config
        self.stats = PipelineStats()
        self.registry = MarshalRegistry()

    @contextlib.contextmanager
    def step(self) -> Iterator["SavedTensorPipeline"]:
        """Scope one forward/backward under the pack/unpack hooks.

        Clears the marshal registry on entry and exit -- dedup must never
        span an optimizer write.
        """
        self.registry.clear()
        if not self.config.offload:
            yield self
            return
        with saved_tensors_hooks(self._pack, self._unpack):
            try:
                yield self
            finally:
                self.registry.clear()

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _pack(self, tensor: Tensor) -> SavedPayload:
        cfg = self.config
        if tensor.device != GPU:
            return SavedPayload(entry=None, passthrough=tensor)

        self.stats.tensors_packed += 1
        metadata = (tensor.shape, tensor.strides, tensor.offset)

        if cfg.marshal:
            entry, hops, trace = self.registry.find(
                tensor, cfg.hop_budget, self.stats
            )
            if entry is not None:
                self.stats.record_hit(hops, tensor.storage.nbytes)
                return SavedPayload(
                    entry=entry,
                    shape=metadata[0],
                    strides=metadata[1],
                    offset=metadata[2],
                    op_trace=tuple(trace),
                )

        entry = self._offload(tensor)
        if cfg.marshal:
            self.registry.register(tensor, entry)
        return SavedPayload(
            entry=entry,
            shape=metadata[0],
            strides=metadata[1],
            offset=metadata[2],
        )

    def _unpack(self, payload: SavedPayload) -> Tensor:
        if payload.passthrough is not None:
            return payload.passthrough
        entry = payload.entry
        assert entry is not None
        storage = entry.cached_gpu_storage()
        if storage is None:
            flat = self._restore(entry)
            entry.cache_gpu(flat)
            storage = flat.storage
        return Tensor(storage, payload.shape, payload.strides, payload.offset)

    # ------------------------------------------------------------------
    # Device movement
    # ------------------------------------------------------------------

    def _offload(self, tensor: Tensor) -> OffloadEntry:
        """Copy the tensor's *entire storage* to the host (possibly sharded).

        Copying the whole storage (rather than the tensor's logical data)
        is what allows any later view of the same storage to be served by
        reference -- the marshaling contract.
        """
        cfg = self.config
        storage = tensor.storage
        if (
            cfg.shard
            and cfg.group is not None
            and storage.nbytes >= cfg.shard_min_bytes
        ):
            host_copy: Tensor | ShardedTensor = shard_storage(
                storage, cfg.group, tag="offload-shard"
            )
            self.stats.tensors_sharded += 1
            self.stats.bytes_sharded_local += host_copy.local_nbytes
        else:
            host_copy = Tensor(storage.clone_to(CPU), (storage.numel,), (1,))
            global_ledger().record(
                GPU.name, CPU.name, host_copy.nbytes, tag="offload"
            )
        self.stats.copies_made += 1
        self.stats.bytes_copied += storage.nbytes
        return OffloadEntry(host_copy)

    def _restore(self, entry: OffloadEntry) -> Tensor:
        """Bring a host copy back to the source device as a flat tensor."""
        host = entry.host_copy
        if isinstance(host, ShardedTensor):
            self.stats.gathers += 1
            return all_gather(host, GPU, tag="backward-gather")
        restored = Tensor(
            host.storage.clone_to(GPU), host.shape, host.strides, host.offset
        )
        global_ledger().record(CPU.name, GPU.name, restored.nbytes, tag="reload")
        return restored
