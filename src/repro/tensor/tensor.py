"""The Tensor: strided metadata over a shared Storage.

Reproduces the PyTorch tensor architecture the paper's Section 2.1 describes:
a tensor is (shape, strides, offset) metadata plus a reference to a
:class:`~repro.tensor.storage.Storage`.  View operations (``view``,
``transpose``, ``expand``, basic slicing) return new metadata over the *same*
storage and cost no device memory; ``.to(device)`` must materialize a new
storage on the destination and is the operation whose redundancy eDKM's
marshaling removes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable, Sequence

import numpy as np

from repro.tensor import autograd
from repro.tensor import dtype as dtypes
from repro.tensor.device import CPU, Device, as_device
from repro.tensor.dtype import DType, get_dtype
from repro.tensor.storage import Storage


@lru_cache(maxsize=1024)
def contiguous_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major element strides for ``shape``, as Python ints.

    Memoized (a handful of shapes recur), so a result tensor costs no
    stride loop; a numpy-int shape hashes like its Python-int twin.
    """
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * int(shape[i + 1])
    return tuple(strides)


class Tensor:
    """A strided, device-tagged, optionally differentiable array."""

    __slots__ = (
        "storage",
        "dtype",
        "shape",
        "strides",
        "offset",
        "requires_grad",
        "grad",
        "grad_fn",
        "consumers",
        "_view",
        "__weakref__",
    )

    def __init__(
        self,
        storage: Storage,
        shape: tuple[int, ...],
        strides: tuple[int, ...],
        offset: int = 0,
        requires_grad: bool = False,
    ) -> None:
        self._set_slots(
            storage,
            tuple(map(int, shape)),
            tuple(map(int, strides)),
            int(offset),
            bool(requires_grad),
        )

    def _set_slots(
        self,
        storage: Storage,
        shape: tuple[int, ...],
        strides: tuple[int, ...],
        offset: int,
        requires_grad: bool,
        view: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Set every slot, from already-normalized metadata.

        The one place that does: ``__init__`` normalizes its arguments
        first, while ``adopt`` passes the kernel's shape as it is.
        """
        self.storage = storage
        self.dtype = storage.dtype
        self.shape = shape
        self.strides = strides
        self.offset = offset
        self.requires_grad = requires_grad
        self.grad: Tensor | None = None
        self.grad_fn: autograd.Node | None = None
        # Weak references to Nodes that consumed this tensor as an input;
        # populated by Function.apply and walked (descendant direction) by
        # eDKM's cross-device marshaling.
        self.consumers: list[Any] | None = None
        # ``(storage.data, ndarray view)``, built by the first ``_np()``;
        # see ``_np`` for why it holds the buffer and not the Storage.
        self._view = view

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        values: np.ndarray,
        dtype: DType | str | None = None,
        device: Device | str = CPU,
        requires_grad: bool = False,
    ) -> "Tensor":
        """Allocate a fresh contiguous tensor holding ``values``."""
        values = np.asarray(values)
        if dtype is None:
            dtype = dtypes.from_numpy_dtype(values.dtype)
        elif not isinstance(dtype, DType):
            dtype = get_dtype(dtype)
        if not isinstance(device, Device):
            device = as_device(device)
        storage = Storage.from_values(values, dtype, device)
        return cls(
            storage,
            shape=values.shape,
            strides=contiguous_strides(values.shape),
            requires_grad=requires_grad,
        )

    @classmethod
    def adopt(cls, values: np.ndarray, dtype: DType, device: Device) -> "Tensor":
        """Wrap a fresh kernel result as a contiguous tensor, without copying it.

        ``values`` becomes the buffer (projected onto ``dtype``; a
        non-C-contiguous result is laid out once), so it must share memory
        with no input and no one else may write it: an op whose numpy
        result can alias an input copies explicitly first.  External data
        goes through :meth:`from_numpy`, which never aliases its caller.
        The tensor is built in one step from the array's own shape, and it
        starts with its numpy view.
        """
        view = dtype.project(values)
        if not view.flags.c_contiguous:
            view = view.copy()
        flat = view.reshape(-1)
        shape = view.shape
        out = cls.__new__(cls)
        out._set_slots(
            Storage(flat, dtype, device),
            shape,
            contiguous_strides(shape),
            0,
            False,
            (flat, view),
        )
        return out

    @classmethod
    def view_of(
        cls,
        base: "Tensor",
        shape: Sequence[int],
        strides: Sequence[int],
        offset: int,
    ) -> "Tensor":
        """A new tensor sharing ``base``'s storage with different metadata."""
        return cls(base.storage, tuple(shape), tuple(strides), offset)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def device(self) -> Device:
        return self.storage.device

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def numel(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def is_leaf(self) -> bool:
        return self.grad_fn is None

    @property
    def nbytes(self) -> int:
        """Logical bytes of this tensor's *storage* (shared across views)."""
        return self.storage.nbytes

    def is_contiguous(self) -> bool:
        return self.strides == contiguous_strides(self.shape)

    def shares_storage_with(self, other: "Tensor") -> bool:
        return self.storage is other.storage

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def _np(self) -> np.ndarray:
        """A (possibly non-contiguous) numpy view over this tensor's data.

        Built once and kept with the buffer it reads, as one tuple (one
        atomic store, so a concurrent reader sees a matching pair).  The
        pair names ``storage.data``, never the ``Storage``: a storage
        swapped out (``Parameter.move_to``, a dtype re-projection) fails
        the identity check, so the view is rebuilt over the new buffer, and
        the old ``Storage`` is free to die and release its tracker bytes.
        """
        cached = self._view
        if cached is not None and cached[0] is self.storage.data:
            return cached[1]
        return self._new_view()

    def _new_view(self) -> np.ndarray:
        phys = self.storage.data
        itemsize = phys.itemsize
        # The ndarray constructor bounds-checks shape x strides against the
        # buffer (ValueError on overrun); ``as_strided`` would not.
        view = np.ndarray(
            self.shape,
            phys.dtype,
            phys,
            self.offset * itemsize,
            tuple(map(itemsize.__mul__, self.strides)),
        )
        self._view = (phys, view)
        return view

    def _compute(self) -> np.ndarray:
        """Data as a contiguous array in the dtype's compute precision."""
        return np.ascontiguousarray(self._np(), dtype=self.dtype.np_compute)

    def numpy(self) -> np.ndarray:
        """A defensive copy of this tensor's data (physical dtype)."""
        return np.array(self._np())

    def item(self) -> float | int | bool:
        if self.numel != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return self._np().reshape(()).item()

    def tolist(self) -> Any:
        return self._np().tolist()

    # ------------------------------------------------------------------
    # In-place mutation (never recorded on the tape)
    # ------------------------------------------------------------------

    def copy_(self, values: "Tensor | np.ndarray") -> "Tensor":
        """Overwrite data in place, preserving storage identity and device."""
        if isinstance(values, Tensor):
            values = values._compute()
        values = np.broadcast_to(np.asarray(values), self.shape)
        self._np()[...] = self.dtype.project(values).reshape(self.shape)
        self.storage.bump_version()
        return self

    def fill_(self, value: float) -> "Tensor":
        self._np()[...] = self.dtype.project(np.asarray(value))
        self.storage.bump_version()
        return self

    def zero_(self) -> "Tensor":
        return self.fill_(0.0)

    def _unsafe_add_(self, values: np.ndarray) -> "Tensor":
        """In-place accumulate, used only by the autograd engine."""
        current = self._np().astype(self.dtype.np_compute)
        self._np()[...] = self.dtype.project(current + values)
        self.storage.bump_version()
        return self

    # ------------------------------------------------------------------
    # Autograd surface
    # ------------------------------------------------------------------

    def backward(self, grad: "np.ndarray | Tensor | None" = None) -> None:
        if isinstance(grad, Tensor):
            grad = grad._compute()
        autograd.backward(self, grad)

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's storage (no grad history)."""
        out = Tensor(self.storage, self.shape, self.strides, self.offset)
        return out

    def requires_grad_(self, value: bool = True) -> "Tensor":
        if value and self.grad_fn is not None:
            raise RuntimeError("cannot require grad on a non-leaf tensor")
        self.requires_grad = value
        return self

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Movement / casting
    # ------------------------------------------------------------------

    def to(self, device: Device | str, tag: str = "") -> "Tensor":
        """Copy to ``device`` (new storage; traffic is recorded).

        Returns ``self`` when already on the target device, mirroring
        ``torch.Tensor.to``.
        """
        dev = as_device(device)
        if dev == self.device:
            return self
        return _ops.to_device(self, dev, tag=tag)

    def cast(self, dtype: DType | str) -> "Tensor":
        dtype = get_dtype(dtype)
        if dtype is self.dtype:
            return self
        return _ops.cast(self, dtype)

    def float(self) -> "Tensor":
        return self.cast(dtypes.float32)

    def half(self) -> "Tensor":
        return self.cast(dtypes.float16)

    def bfloat16(self) -> "Tensor":
        return self.cast(dtypes.bfloat16)

    # ------------------------------------------------------------------
    # Shape ops (delegate to autograd Functions)
    # ------------------------------------------------------------------

    def view(self, *shape: int) -> "Tensor":
        return _ops.view(self, _normalize_shape(shape))

    def reshape(self, *shape: int) -> "Tensor":
        return _ops.reshape(self, _normalize_shape(shape))

    def transpose(self, dim0: int, dim1: int) -> "Tensor":
        return _ops.transpose(self, dim0, dim1)

    def permute(self, *dims: int) -> "Tensor":
        if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
            dims = tuple(dims[0])
        return _ops.permute(self, dims)

    def expand(self, *shape: int) -> "Tensor":
        return _ops.expand(self, _normalize_shape(shape))

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def squeeze(self, dim: int | None = None) -> "Tensor":
        if dim is None:
            new_shape = tuple(s for s in self.shape if s != 1) or (1,)
        else:
            dim = dim % max(self.ndim, 1)
            if self.shape[dim] != 1:
                return self
            new_shape = self.shape[:dim] + self.shape[dim + 1 :]
        return self.reshape(*new_shape)

    def unsqueeze(self, dim: int) -> "Tensor":
        dim = dim % (self.ndim + 1)
        new_shape = self.shape[:dim] + (1,) + self.shape[dim:]
        return self.reshape(*new_shape)

    def contiguous(self) -> "Tensor":
        if self.is_contiguous():
            return self
        return _ops.contiguous(self)

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise ValueError(".T requires a 2-D tensor")
        return self.transpose(0, 1)

    def __getitem__(self, key: Any) -> "Tensor":
        return _ops.slice_(self, key)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: Any) -> "Tensor":
        return _ops.add(self, other)

    def __radd__(self, other: Any) -> "Tensor":
        return _ops.add(self, other)

    def __sub__(self, other: Any) -> "Tensor":
        return _ops.sub(self, other)

    def __rsub__(self, other: Any) -> "Tensor":
        return _ops.sub(_ops.constant_like(self, other), self)

    def __mul__(self, other: Any) -> "Tensor":
        return _ops.mul(self, other)

    def __rmul__(self, other: Any) -> "Tensor":
        return _ops.mul(self, other)

    def __truediv__(self, other: Any) -> "Tensor":
        return _ops.div(self, other)

    def __rtruediv__(self, other: Any) -> "Tensor":
        return _ops.div(_ops.constant_like(self, other), self)

    def __neg__(self) -> "Tensor":
        return _ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return _ops.pow(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return _ops.matmul(self, other)

    # Comparisons: non-differentiable, produce bool tensors.
    def __eq__(self, other: Any):  # type: ignore[override]
        return _ops.compare(self, other, "eq")

    def __ne__(self, other: Any):  # type: ignore[override]
        return _ops.compare(self, other, "ne")

    def __lt__(self, other: Any) -> "Tensor":
        return _ops.compare(self, other, "lt")

    def __le__(self, other: Any) -> "Tensor":
        return _ops.compare(self, other, "le")

    def __gt__(self, other: Any) -> "Tensor":
        return _ops.compare(self, other, "gt")

    def __ge__(self, other: Any) -> "Tensor":
        return _ops.compare(self, other, "ge")

    def __hash__(self) -> int:
        return id(self)

    # ------------------------------------------------------------------
    # Reductions / elementwise sugar
    # ------------------------------------------------------------------

    def sum(self, dim: int | None = None, keepdim: bool = False) -> "Tensor":
        return _ops.sum_(self, dim=dim, keepdim=keepdim)

    def mean(self, dim: int | None = None, keepdim: bool = False) -> "Tensor":
        return _ops.mean(self, dim=dim, keepdim=keepdim)

    def max(self, dim: int | None = None, keepdim: bool = False) -> "Tensor":
        return _ops.max_(self, dim=dim, keepdim=keepdim)

    def min(self, dim: int | None = None, keepdim: bool = False) -> "Tensor":
        return _ops.min_(self, dim=dim, keepdim=keepdim)

    def exp(self) -> "Tensor":
        return _ops.exp(self)

    def log(self) -> "Tensor":
        return _ops.log(self)

    def sqrt(self) -> "Tensor":
        return _ops.sqrt(self)

    def abs(self) -> "Tensor":
        return _ops.abs_(self)

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        return _ops.clip(self, low, high)

    def softmax(self, dim: int = -1) -> "Tensor":
        return _ops.softmax(self, dim=dim)

    def log_softmax(self, dim: int = -1) -> "Tensor":
        return _ops.log_softmax(self, dim=dim)

    def argmax(self, dim: int | None = None) -> "Tensor":
        return _ops.argmax(self, dim=dim)

    def argmin(self, dim: int | None = None) -> "Tensor":
        return _ops.argmin(self, dim=dim)

    def __repr__(self) -> str:
        grad_part = ", requires_grad=True" if self.requires_grad else ""
        return (
            f"Tensor(shape={self.shape}, dtype={self.dtype.name}, "
            f"device={self.device.name}{grad_part})\n{self._np()!r}"
        )

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]


def _normalize_shape(shape: tuple) -> tuple[int, ...]:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        return tuple(map(int, shape[0]))
    return tuple(map(int, shape))


# --------------------------------------------------------------------------
# Factory functions
# --------------------------------------------------------------------------


def tensor(
    data: Any,
    dtype: DType | str | None = None,
    device: Device | str = CPU,
    requires_grad: bool = False,
) -> Tensor:
    """Create a tensor from array-like data."""
    array = np.asarray(data)
    if dtype is None and array.dtype == np.float64:
        dtype = dtypes.float32
    return Tensor.from_numpy(array, dtype=dtype, device=device, requires_grad=requires_grad)


def zeros(
    *shape: int,
    dtype: DType | str = dtypes.float32,
    device: Device | str = CPU,
    requires_grad: bool = False,
) -> Tensor:
    shape = _normalize_shape(shape)
    dt = get_dtype(dtype)
    return Tensor.from_numpy(
        np.zeros(shape, dtype=dt.np_storage),
        dtype=dt,
        device=device,
        requires_grad=requires_grad,
    )


def ones(
    *shape: int,
    dtype: DType | str = dtypes.float32,
    device: Device | str = CPU,
    requires_grad: bool = False,
) -> Tensor:
    shape = _normalize_shape(shape)
    dt = get_dtype(dtype)
    return Tensor.from_numpy(
        np.ones(shape, dtype=dt.np_storage),
        dtype=dt,
        device=device,
        requires_grad=requires_grad,
    )


def full(
    shape: Iterable[int],
    value: float,
    dtype: DType | str = dtypes.float32,
    device: Device | str = CPU,
) -> Tensor:
    dt = get_dtype(dtype)
    return Tensor.from_numpy(
        np.full(tuple(shape), value, dtype=dt.np_storage), dtype=dt, device=device
    )


def arange(
    start: int,
    stop: int | None = None,
    step: int = 1,
    dtype: DType | str = dtypes.int64,
    device: Device | str = CPU,
) -> Tensor:
    if stop is None:
        start, stop = 0, start
    dt = get_dtype(dtype)
    return Tensor.from_numpy(
        np.arange(start, stop, step).astype(dt.np_storage), dtype=dt, device=device
    )


# Bound last: ``ops`` imports ``Tensor`` from this module.
from repro.tensor import ops as _ops  # noqa: E402
