"""Reverse-mode autograd.

The engine mirrors the parts of PyTorch autograd that eDKM's memory
optimizations interact with:

- every differentiable op is a :class:`Function` with a ``Context`` whose
  ``save_for_backward`` routes tensors through the active
  :func:`saved_tensors_hooks` pair -- the hook point eDKM uses to offload,
  deduplicate (marshal), uniquify and shard saved activations;
- the forward graph is retained as :class:`Node` objects holding *weak*
  references to their input/output tensors, so eDKM's marshaling can walk
  the graph ("within 4 hops") without extending tensor lifetimes;
- saved tensors hold strong references until ``backward`` consumes them,
  which is precisely the memory cost the paper attacks.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.memory.tracker import OP_SCOPE
from repro.tensor.pairwise import sum_keepdims

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tensor.tensor import Tensor


# --------------------------------------------------------------------------
# Grad mode
# --------------------------------------------------------------------------

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Whether new operations will be recorded on the autograd tape."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


# --------------------------------------------------------------------------
# Saved-tensor hooks (the eDKM integration point)
# --------------------------------------------------------------------------


_HOOKS: list[tuple[Callable[["Tensor"], Any], Callable[[Any], "Tensor"]]] = []
"""The installed :func:`saved_tensors_hooks` pairs, innermost last."""


@contextlib.contextmanager
def saved_tensors_hooks(
    pack: Callable[["Tensor"], Any],
    unpack: Callable[[Any], "Tensor"],
) -> Iterator[None]:
    """Install a pack/unpack pair applied to tensors saved for backward.

    Matches ``torch.autograd.graph.saved_tensors_hooks`` semantics: the
    innermost pair wins; ``pack`` runs at save time and may return an
    arbitrary handle; ``unpack`` runs when ``ctx.saved_tensors`` is read
    during backward and must return an equivalent tensor.
    """
    _HOOKS.append((pack, unpack))
    try:
        yield
    finally:
        _HOOKS.pop()


def _current_hooks() -> (
    tuple[Callable[["Tensor"], Any], Callable[[Any], "Tensor"]] | None
):
    return _HOOKS[-1] if _HOOKS else None


# --------------------------------------------------------------------------
# Context / Node / Function
# --------------------------------------------------------------------------


class Context:
    """Per-call scratch space connecting forward and backward.

    ``save_for_backward`` stores tensors (through the active hooks);
    arbitrary non-tensor metadata is attached as plain attributes
    (``ctx.dim = 1``).
    """

    def __init__(self, needs_input_grad: tuple[bool, ...] = ()) -> None:
        self._packed: list[Any] = []
        self._unpack_fns: list[Callable[[Any], "Tensor"] | None] = []
        self.needs_input_grad = needs_input_grad

    def save_for_backward(self, *tensors: "Tensor") -> None:
        hooks = _current_hooks()
        for tensor in tensors:
            if hooks is None:
                self._packed.append(tensor)
                self._unpack_fns.append(None)
            else:
                pack, unpack = hooks
                self._packed.append(pack(tensor))
                self._unpack_fns.append(unpack)

    @property
    def saved_tensors(self) -> tuple["Tensor", ...]:
        out = []
        for payload, unpack in zip(self._packed, self._unpack_fns):
            out.append(payload if unpack is None else unpack(payload))
        return tuple(out)

    def release_saved(self) -> None:
        """Drop saved payloads (called after backward consumes the node)."""
        self._packed = []
        self._unpack_fns = []


class Node:
    """One recorded op application in the autograd graph.

    ``edges`` point at the producers of each tensor input: either another
    Node, a leaf tensor (strong reference, so ``.grad`` can be accumulated),
    or ``None`` for inputs that do not require grad.  ``input_refs`` and
    ``output_ref`` are weak references used only by graph-walking consumers
    (eDKM marshaling) and never extend tensor lifetimes.
    """

    __slots__ = (
        "fn",
        "ctx",
        "op_name",
        "storage_invariant",
        "edges",
        "input_refs",
        "output_ref",
        "consumed",
        "__weakref__",
    )

    def __init__(
        self,
        fn: type["Function"],
        ctx: Context,
        op_name: str,
        storage_invariant: bool,
        edges: list[tuple[str, Any]],
        input_refs: list["weakref.ReferenceType[Tensor] | None"],
    ) -> None:
        self.fn = fn
        self.ctx = ctx
        self.op_name = op_name
        self.storage_invariant = storage_invariant
        self.edges = edges
        self.input_refs = input_refs
        self.output_ref: weakref.ReferenceType["Tensor"] | None = None
        self.consumed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.op_name})"


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward(ctx, *args, **kwargs) -> Tensor`` working
    at the Tensor level (so view ops can share storage) and
    ``backward(ctx, grad_output: np.ndarray) -> Sequence[np.ndarray | None]``
    returning one gradient per *tensor* positional input, aligned with the
    order tensors appeared in ``args``.
    """

    op_name: str | None = None
    # True for ops whose output shares the input's data storage (view,
    # transpose, ...): the set eDKM's marshaling walks through.
    storage_invariant: bool = False

    @staticmethod
    def forward(ctx: Context, *args: Any, **kwargs: Any) -> "Tensor":
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray) -> Sequence[np.ndarray | None]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        from repro.tensor.tensor import Tensor

        tensor_inputs = [a for a in args if isinstance(a, Tensor)]
        needs_input_grad = tuple([t.requires_grad for t in tensor_inputs])
        ctx = Context(needs_input_grad)
        op_name = cls.op_name or cls.__name__
        # Device trackers name the op whose allocation raised their peak.
        outer, OP_SCOPE.name = OP_SCOPE.name, op_name
        try:
            output = cls.forward(ctx, *args, **kwargs)
        finally:
            OP_SCOPE.name = outer

        if True in needs_input_grad and _GRAD_ENABLED:
            edges: list[tuple[str, Any]] = []
            input_refs: list[weakref.ReferenceType[Tensor] | None] = []
            for t, needs_grad in zip(tensor_inputs, needs_input_grad):
                input_refs.append(weakref.ref(t))
                if not needs_grad:
                    edges.append(("none", None))
                elif t.grad_fn is not None:
                    edges.append(("node", t.grad_fn))
                else:
                    edges.append(("leaf", t))
            node = Node(
                fn=cls,
                ctx=ctx,
                op_name=op_name,
                storage_invariant=cls.storage_invariant,
                edges=edges,
                input_refs=input_refs,
            )
            node.output_ref = weakref.ref(output)
            output.grad_fn = node
            output.requires_grad = True
            # Forward (consumer) edges, so graph walks can move from a
            # tensor to the ops that used it -- needed by eDKM marshaling.
            node_ref = weakref.ref(node)
            for t in tensor_inputs:
                if t.consumers is None:
                    t.consumers = []
                t.consumers.append(node_ref)
        return output


# --------------------------------------------------------------------------
# Backward engine
# --------------------------------------------------------------------------


def backward(root: "Tensor", grad: np.ndarray | None = None) -> None:
    """Run reverse-mode accumulation from ``root``.

    Gradients are accumulated into the ``.grad`` of every reachable leaf
    tensor with ``requires_grad=True``.  Saved tensors are released as each
    node is consumed (retain_graph semantics are not supported; running
    backward twice through the same node raises).
    """
    if root.grad_fn is None:
        raise RuntimeError("backward called on a tensor with no grad_fn")
    if grad is None:
        if root.numel != 1:
            raise RuntimeError(
                "grad must be provided for non-scalar outputs "
                f"(output shape {root.shape})"
            )
        grad = np.ones(root.shape, dtype=root.dtype.np_compute)
    else:
        grad = np.asarray(grad, dtype=root.dtype.np_compute)
        if grad.shape != root.shape:
            raise RuntimeError(
                f"grad shape {grad.shape} does not match output shape {root.shape}"
            )

    topo = _topological_order(root.grad_fn)
    node_grads: dict[int, np.ndarray] = {id(root.grad_fn): grad}
    nodes_by_id = {id(n): n for n in topo}
    outer = OP_SCOPE.name
    try:
        for node in topo:
            node_grad = node_grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.consumed:
                raise RuntimeError(
                    f"node {node.op_name} was already consumed by a previous "
                    "backward pass (retain_graph is not supported)"
                )
            # Device trackers name the node whose backward -- its unpacks, its
            # kernel and the leaf gradients it creates -- raised their peak.
            OP_SCOPE.name = f"{node.op_name}.backward"
            grads = node.fn.backward(node.ctx, node_grad)
            node.consumed = True
            node.ctx.release_saved()
            if len(grads) != len(node.edges):
                raise RuntimeError(
                    f"{node.op_name}.backward returned {len(grads)} grads for "
                    f"{len(node.edges)} inputs"
                )
            for (kind, target), g in zip(node.edges, grads):
                if g is None or kind == "none":
                    continue
                if kind == "leaf":
                    _accumulate_leaf(target, g)
                else:
                    key = id(target)
                    assert key in nodes_by_id
                    existing = node_grads.get(key)
                    node_grads[key] = g if existing is None else existing + g
    finally:
        OP_SCOPE.name = outer


def _topological_order(root_node: Node) -> list[Node]:
    """Nodes ordered so every node precedes the producers of its inputs."""
    order: list[Node] = []
    visited: set[int] = set()
    # Iterative DFS; graph depth can exceed Python's recursion limit for
    # long training graphs.
    stack: list[tuple[Node, bool]] = [(root_node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for kind, target in node.edges:
            if kind == "node" and id(target) not in visited:
                stack.append((target, False))
    order.reverse()
    return order


def _accumulate_leaf(leaf: "Tensor", grad: np.ndarray) -> None:
    from repro.tensor.tensor import Tensor

    grad = np.asarray(grad, dtype=leaf.dtype.np_compute)
    if grad.shape != leaf.shape:
        raise RuntimeError(
            f"leaf grad shape {grad.shape} does not match leaf shape {leaf.shape}"
        )
    with no_grad():
        if leaf.grad is None:
            leaf.grad = Tensor.from_numpy(grad, dtype=leaf.dtype, device=leaf.device)
        else:
            leaf.grad._unsafe_add_(grad)


# --------------------------------------------------------------------------
# Helpers shared by op implementations
# --------------------------------------------------------------------------


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum dims that were size-1 in the target.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if len(axes) == 1:
        # Axis 0 of a 2-D grad (the (k, N) -> (1, N) of the dense DKM map)
        # is summed down the rows it has, in the order of a row-wise sum.
        grad = sum_keepdims(grad, axes[0])
    elif axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
