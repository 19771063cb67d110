"""Module base class: parameter registration, state dicts, device moves."""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.tensor.device import Device, as_device
from repro.tensor.storage import Storage
from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A leaf tensor registered as a trainable module attribute."""

    __slots__ = ()

    @classmethod
    def wrap(cls, tensor: Tensor, requires_grad: bool = True) -> "Parameter":
        param = cls(
            tensor.storage,
            tensor.shape,
            tensor.strides,
            tensor.offset,
            requires_grad=requires_grad,
        )
        return param

    def move_to(self, device: Device) -> None:
        """Relocate storage to ``device`` in place (preserves identity)."""
        if device == self.device:
            return
        self.storage = Storage.from_values(
            np.asarray(self._np()), self.dtype, device
        )
        # A moved parameter is contiguous over its fresh storage.
        from repro.tensor.tensor import contiguous_strides

        self.strides = contiguous_strides(self.shape)
        self.offset = 0


class Module:
    """Composable unit with registered parameters and submodules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> list["Module"]:
        return list(self._modules.values())

    def num_parameters(self) -> int:
        return sum(p.numel for p in self.parameters())

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Tensor]:
        return {name: param for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, Tensor]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            incoming = state[name]
            if tuple(incoming.shape) != tuple(param.shape):
                raise ValueError(
                    f"shape mismatch for {name}: {incoming.shape} vs {param.shape}"
                )
            param.copy_(incoming)

    # ------------------------------------------------------------------
    # Modes and movement
    # ------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def to(self, device: Device | str) -> "Module":
        dev = as_device(device)
        for param in self.parameters():
            param.move_to(dev)
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for module in self._modules.values():
            module.apply(fn)
        fn(self)
        return self

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------

    def forward(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {module.__class__.__name__}"
            for name, module in self._modules.items()
        ]
        body = "\n".join(child_lines)
        return f"{self.__class__.__name__}(\n{body}\n)" if body else (
            f"{self.__class__.__name__}()"
        )


class ModuleList(Module):
    """An indexable sequence of submodules."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        name = str(len(self._items))
        self._items.append(module)
        self._modules[name] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
