"""Cross-device tensor marshaling (paper Section 2.1).

When autograd offloads a saved tensor from GPU to CPU, PyTorch-style
semantics force a fresh CPU storage per ``.to()`` call -- two views of one
GPU storage become two independent CPU copies (Table 1).  The marshaling
layer interposes on the offload: before copying, it checks whether the same
data storage has already been offloaded, and if so stores only a *reference*
to the existing host copy plus the metadata needed to rebuild the view
("the list of operations tracing back to the new tensor").

Lookup follows the paper: content hashing is assumed prohibitively
expensive, so the registry walks the forward computation graph from the new
tensor through data-storage-invariant operations (view, transpose, expand,
slice, ...) for at most ``hop_budget`` hops, looking for a tensor already
registered as offloaded.  The paper found 4 hops sufficient; an oracle
``"storage-id"`` strategy (a dict keyed on storage identity) is provided for
ablation: Fig. 2 and the strategy tests build a
``MarshalRegistry(strategy="storage-id")`` and assign it to
``SavedTensorPipeline.registry``.  Both strategies thread probe-cost
counters through :class:`~repro.core.config.PipelineStats`.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from typing import Iterator

from repro.core.config import PipelineStats
from repro.distributed.collective import ShardedTensor
from repro.tensor.tensor import Tensor

SEARCH_STRATEGIES = ("graph", "storage-id")
"""Marshal lookup strategies: the paper's hop-limited forward-graph walk
and the storage-identity oracle its tests and ablations compare against."""


class OffloadEntry:
    """One offloaded source storage and its host-side copy.

    ``host_copy`` is either a whole Tensor on the host device or a
    :class:`ShardedTensor` spread across a learner group.  ``gpu_cache``
    weakly remembers the *storage* most recently reconstructed on the source
    device, so several references unpacked close together share one transfer
    back (the storage stays alive exactly as long as some unpacked tensor
    still uses it).
    """

    __slots__ = ("host_copy", "_gpu_cache")

    def __init__(self, host_copy: "Tensor | ShardedTensor") -> None:
        self.host_copy = host_copy
        self._gpu_cache: weakref.ReferenceType | None = None

    def cache_gpu(self, tensor: Tensor) -> None:
        """Weakly remember ``tensor``'s storage as the latest source-device
        reconstruction, so nearby unpacks share one transfer back."""
        self._gpu_cache = weakref.ref(tensor.storage)

    def cached_gpu_storage(self):
        """The most recent source-device storage, or None if collected."""
        if self._gpu_cache is None:
            return None
        return self._gpu_cache()


class MarshalRegistry:
    """Tracks which tensors' storages already have host copies.

    Registration is keyed on tensor object identity (validated through a
    weak reference); lookup is by graph walk (``strategy="graph"``, the
    default) or by storage identity (``"storage-id"``, the oracle).  A
    registry instance scopes one forward/backward step.

    The tensor-id and storage-id tables cross-reference each other's key,
    so a stale id detected on either side (the CPython allocator reuses
    addresses after garbage collection) evicts *both* slots -- a one-sided
    eviction would leave a dead counterpart that a recycled id could later
    resolve to the wrong entry.
    """

    def __init__(self, strategy: str = "graph") -> None:
        if strategy not in SEARCH_STRATEGIES:
            raise ValueError(
                f"unknown search strategy {strategy!r}; "
                f"expected one of {SEARCH_STRATEGIES}"
            )
        self.strategy = strategy
        # Reentrant: public entry points lock, private helpers assume the
        # caller holds it (the repolint RL101/RL102 convention).
        self._lock = threading.RLock()
        # id(tensor) -> (tensor weakref, entry, id(storage))
        self._by_tensor_id: dict[
            int, tuple[weakref.ReferenceType, OffloadEntry, int]
        ] = {}
        # id(storage) -> (storage weakref, entry, id(tensor))
        self._by_storage_id: dict[
            int, tuple[weakref.ReferenceType, OffloadEntry, int]
        ] = {}

    def register(self, tensor: Tensor, entry: OffloadEntry) -> None:
        """Record that ``tensor``'s storage now has the host copy in
        ``entry`` (indexed by tensor id and by storage id)."""
        ref = weakref.ref(tensor)
        storage_ref = weakref.ref(tensor.storage)
        with self._lock:
            self._by_tensor_id[id(tensor)] = (ref, entry, id(tensor.storage))
            self._by_storage_id[id(tensor.storage)] = (
                storage_ref,
                entry,
                id(tensor),
            )

    def clear(self) -> None:
        """Drop every index (called between steps: weights change)."""
        with self._lock:
            self._by_tensor_id.clear()
            self._by_storage_id.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_tensor_id)

    # ------------------------------------------------------------------
    # Lookup strategies
    # ------------------------------------------------------------------

    def find(
        self,
        tensor: Tensor,
        hop_budget: int,
        stats: PipelineStats | None = None,
    ) -> tuple[OffloadEntry | None, int, list[str]]:
        """Locate an existing entry for ``tensor``'s data storage.

        Returns ``(entry, hops, op_trace)`` where ``op_trace`` names the
        storage-invariant ops connecting the found tensor back to the new
        one (the "required ops for future retrieval" of Fig. 2b).  When
        ``stats`` is given, the probe's cost and hit/miss outcome are
        recorded under the registry's strategy name.
        """
        with self._lock:
            if self.strategy == "storage-id":
                result = self._find_by_storage(tensor)
            else:
                result = self._find_by_graph(tensor, hop_budget, stats)
        if stats is not None:
            stats.record_probe(self.strategy, hit=result[0] is not None)
        return result

    # -- eviction (both sides, see class docstring) ---------------------

    def _evict_tensor_key(self, tensor_key: int) -> None:
        stale = self._by_tensor_id.pop(tensor_key, None)
        if stale is None:
            return
        _, entry, storage_key = stale
        counterpart = self._by_storage_id.get(storage_key)
        if counterpart is not None and counterpart[1] is entry:
            del self._by_storage_id[storage_key]

    def _evict_storage_key(self, storage_key: int) -> None:
        stale = self._by_storage_id.pop(storage_key, None)
        if stale is None:
            return
        _, entry, tensor_key = stale
        counterpart = self._by_tensor_id.get(tensor_key)
        if counterpart is not None and counterpart[1] is entry:
            del self._by_tensor_id[tensor_key]

    def _find_by_storage(
        self, tensor: Tensor
    ) -> tuple[OffloadEntry | None, int, list[str]]:
        hit = self._by_storage_id.get(id(tensor.storage))
        if hit is None:
            return (None, 0, [])
        storage_ref, entry, _ = hit
        if storage_ref() is not tensor.storage:
            # Stale id reuse after garbage collection.
            self._evict_storage_key(id(tensor.storage))
            return (None, 0, [])
        return (entry, 0, [])

    def _find_by_graph(
        self, tensor: Tensor, hop_budget: int, stats: PipelineStats | None = None
    ) -> tuple[OffloadEntry | None, int, list[str]]:
        """BFS over the forward graph through storage-invariant ops.

        The walk alternates between tensors and graph *nodes* so that it can
        traverse chains whose intermediate tensors have been garbage
        collected (the autograd nodes persist, as in PyTorch): entering a
        node costs one hop; stepping from a node to any of its live endpoint
        tensors is free; stepping node-to-node through a dead intermediate
        costs one hop per op.
        """
        # Most probes are plain misses -- the tensor is not registered and
        # no storage-invariant op touches it -- and a registered tensor is
        # its own 0-hop hit: answer both before any BFS state is built.
        entry = self._lookup_tensor(tensor)
        if (
            entry is not None
            or hop_budget <= 0
            or next(_adjacent_view_nodes(tensor), None) is None
        ):
            if stats is not None:
                stats.graph_nodes_visited += 1
            return (entry, 0, [])
        visited: set[int] = {id(tensor)}
        # Items are (tensor-or-node, hops, op-name trace).  A deque keeps the
        # BFS pop O(1); list.pop(0) made the walk O(n^2) in frontier size.
        frontier: deque[tuple[object, int, list[str]]] = deque([(tensor, 0, [])])
        while frontier:
            current, hops, trace = frontier.popleft()
            if stats is not None:
                stats.graph_nodes_visited += 1
            if isinstance(current, Tensor):
                entry = self._lookup_tensor(current)
                if entry is not None and current.storage is tensor.storage:
                    return (entry, hops, trace)
                if hops >= hop_budget:
                    continue
                for node in _adjacent_view_nodes(current):
                    if id(node) not in visited:
                        visited.add(id(node))
                        frontier.append((node, hops + 1, trace + [node.op_name]))
            else:
                node = current
                for endpoint in _node_endpoint_tensors(node):
                    if id(endpoint) not in visited:
                        visited.add(id(endpoint))
                        frontier.append((endpoint, hops, trace))
                if hops >= hop_budget:
                    continue
                for kind, target in node.edges:
                    if (
                        kind == "node"
                        and target.storage_invariant
                        and id(target) not in visited
                    ):
                        visited.add(id(target))
                        frontier.append(
                            (target, hops + 1, trace + [target.op_name])
                        )
        return (None, 0, [])

    def _lookup_tensor(self, tensor: Tensor) -> OffloadEntry | None:
        hit = self._by_tensor_id.get(id(tensor))
        if hit is None:
            return None
        ref, entry, _ = hit
        if ref() is not tensor:
            self._evict_tensor_key(id(tensor))
            return None
        return entry


def _adjacent_view_nodes(tensor: Tensor) -> Iterator[object]:
    """Storage-invariant nodes touching ``tensor`` (producer and consumers)."""
    node = tensor.grad_fn
    if node is not None and node.storage_invariant:
        yield node
    for node_ref in tensor.consumers or []:
        consumer = node_ref()
        if consumer is not None and consumer.storage_invariant:
            yield consumer


def _node_endpoint_tensors(node: object) -> Iterator[Tensor]:
    """Live tensors at either end of a graph node."""
    output_ref = getattr(node, "output_ref", None)
    if output_ref is not None:
        output = output_ref()
        if output is not None:
            yield output
    for ref in getattr(node, "input_refs", []):
        tensor = ref() if ref is not None else None
        if tensor is not None:
            yield tensor
