"""Byte-balanced layer placement for the process engine.

:class:`NodePlacement` is the one placement structure of
:class:`~repro.core.procpool.ProcessLayerEngine`: layers are pinned to
worker slots ("nodes" -- each a spawned single-worker process standing in
for one host) largest-first onto the least-loaded slot, which guarantees
``max slot load <= mean load + largest layer`` (one huge embedding no
longer shares a slot with half the model).  ``node_memory_budget`` turns
the balance into a hard per-slot capacity; an unsatisfiable budget raises
:class:`PlacementError` instead of overcommitting.  Placement is pinning:
it only changes when the layer set or slot count changes, and a
rebalance moves the minimum set of layers (orphans on remove, a settle
pass onto fresh slots on add) -- which is what lets unmoved layers keep
shipping ``O(k)`` deltas across a pool resize.

Pure data: this module imports nothing from ``repro.core``, so the
engine can depend on it without closing an import cycle.  See
``docs/sharding.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class PlacementError(ValueError):
    """A layer set cannot be placed within the configured node budget."""


@dataclass(frozen=True)
class NodePlacement:
    """Byte-balanced, stable layer-to-node pinning.

    Balances layer *bytes* (not counts) via greedy largest-first
    packing -- the right invariant when one embedding outweighs dozens
    of small projections.

    Invariants (property-tested in ``tests/test_sharded.py``):

    - **Balance bound**: ``max(loads) <= mean(loads) + max(sizes)``
      after :meth:`build`, and after :meth:`rebalance` across any node
      add/remove.  (Greedy onto the least-loaded node: when the last
      layer lands on the eventual-max node, that node held at most the
      mean.)
    - **Determinism**: placement is a pure function of the
      ``(sizes, n_nodes, budget)`` input -- ties break on the lexically
      smaller name, never on dict iteration or hashing order.
    - **Minimal movement**: :meth:`rebalance` keeps every surviving pin;
      on node removal only orphaned layers move, on node addition a
      settle pass moves just enough large layers onto the fresh nodes to
      restore the balance bound.
    - **Budget**: with ``budget > 0`` no node's load exceeds it;
      infeasible inputs raise :class:`PlacementError`.
    """

    names: tuple[str, ...]
    sizes: dict[str, int]
    n_nodes: int
    pins: dict[str, int]
    budget: int = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        sized: Sequence[tuple[str, int]],
        n_nodes: int,
        budget: int = 0,
    ) -> "NodePlacement":
        """Place ``(name, nbytes)`` layers greedily, largest first."""
        if n_nodes < 1:
            raise PlacementError(f"need at least one node, got {n_nodes}")
        names = tuple(name for name, _ in sized)
        if len(set(names)) != len(names):
            raise PlacementError("duplicate layer names in placement input")
        sizes = {name: int(nbytes) for name, nbytes in sized}
        pins: dict[str, int] = {}
        loads = [0] * n_nodes
        for name in cls._descending(sizes):
            cls._place(name, sizes[name], pins, loads, budget)
        return cls(
            names=names, sizes=sizes, n_nodes=n_nodes, pins=pins, budget=budget
        )

    @staticmethod
    def _descending(sizes: dict[str, int]) -> list[str]:
        """Names largest-first; ties break on the lexically smaller name."""
        return sorted(sizes, key=lambda n: (-sizes[n], n))

    @staticmethod
    def _place(
        name: str,
        nbytes: int,
        pins: dict[str, int],
        loads: list[int],
        budget: int,
    ) -> None:
        """Pin one layer to the least-loaded node that can take it."""
        candidates = range(len(loads))
        if budget > 0:
            if nbytes > budget:
                raise PlacementError(
                    f"layer {name!r} ({nbytes} bytes) exceeds the per-node "
                    f"budget of {budget} bytes on its own"
                )
            candidates = [i for i in candidates if loads[i] + nbytes <= budget]
            if not candidates:
                raise PlacementError(
                    f"no node can take layer {name!r} ({nbytes} bytes) within "
                    f"the {budget}-byte budget; add nodes or raise the budget"
                )
        node = min(candidates, key=lambda i: (loads[i], i))
        pins[name] = node
        loads[node] += nbytes

    def rebalance(
        self,
        sized: Sequence[tuple[str, int]],
        n_nodes: int,
        budget: int = 0,
    ) -> "NodePlacement":
        """Re-place for a new layer set / node count, moving the minimum.

        Surviving layers keep their pins; orphans (new layers, layers
        pinned to removed nodes) place greedily largest-first; growing
        the cluster additionally runs a settle pass that moves the
        largest qualifying layers from overloaded onto underloaded
        (fresh) nodes until the balance bound holds again.  If a
        positive ``budget`` cannot be honored while keeping surviving
        pins, stability yields to capacity: the placement is rebuilt
        from scratch (which may raise :class:`PlacementError`).
        """
        names = tuple(name for name, _ in sized)
        sizes = {name: int(nbytes) for name, nbytes in sized}
        pins = {
            name: node
            for name, node in self.pins.items()
            if name in sizes and node < n_nodes
        }
        loads = [0] * n_nodes
        for name, node in pins.items():
            loads[node] += sizes[name]
        try:
            for name in self._descending(sizes):
                if name not in pins:
                    self._place(name, sizes[name], pins, loads, budget)
        except PlacementError:
            # Budget pressure beats stability: survivors already fill
            # nodes past what greedy-from-scratch would, so retry cold.
            return self.build(sized, n_nodes, budget)
        if n_nodes > self.n_nodes:
            self._settle(sizes, pins, loads)
        placement = NodePlacement(
            names=names, sizes=sizes, n_nodes=n_nodes, pins=pins, budget=budget
        )
        if budget > 0 and max(loads) > budget:
            return self.build(sized, n_nodes, budget)
        return placement

    @classmethod
    def _settle(
        cls,
        sizes: dict[str, int],
        pins: dict[str, int],
        loads: list[int],
    ) -> None:
        """Move layers from the most- to the least-loaded node while it helps.

        Each move requires ``load(src) - load(dst) > size(layer)``, which
        strictly decreases the sum of squared loads, so the pass
        terminates; at the fixpoint the balance bound provably holds
        (``load(src) <= load(dst) + smallest layer on src``).  The
        iteration cap is a defensive backstop, not a correctness need.
        """
        for _ in range(len(sizes) * max(1, len(loads))):
            src = max(range(len(loads)), key=lambda i: (loads[i], -i))
            dst = min(range(len(loads)), key=lambda i: (loads[i], i))
            gap = loads[src] - loads[dst]
            movable = [
                name
                for name, node in pins.items()
                if node == src and sizes[name] < gap
            ]
            if not movable:
                return
            name = max(movable, key=lambda n: (sizes[n], n))
            pins[name] = dst
            loads[src] -= sizes[name]
            loads[dst] += sizes[name]

    # -- queries --------------------------------------------------------

    def layers_for(self, node: int) -> list[str]:
        """The layers pinned to ``node``, in layer insertion order."""
        return [name for name in self.names if self.pins.get(name) == node]

    def loads(self) -> list[int]:
        """Per-node pinned byte loads."""
        loads = [0] * self.n_nodes
        for name, node in self.pins.items():
            loads[node] += self.sizes[name]
        return loads

    def balance_bound(self) -> float:
        """The guaranteed ceiling: mean load + largest single layer."""
        if not self.sizes:
            return 0.0
        total = sum(self.sizes.values())
        return total / self.n_nodes + max(self.sizes.values())

    def is_balanced(self) -> bool:
        """Whether the balance bound actually holds (audit hook).

        Exposed so tests and the benchmark gate can *detect* an
        imbalanced placement (e.g. an injected everything-on-node-zero
        mutation) rather than trusting the constructor.
        """
        if not self.sizes:
            return True
        return max(self.loads()) <= self.balance_bound() + 1e-9
