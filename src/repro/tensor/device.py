"""Simulated devices.

All data physically lives in host numpy arrays; a :class:`Device` is a named
accounting domain with its own :class:`~repro.memory.tracker.MemoryTracker`.
``"gpu"`` and ``"cpu"`` model the accelerator and host of a single learner;
sharding experiments additionally use per-learner devices like ``"cpu:3"``.

Because every device is host memory, the host allocator plays the part of
a device's caching allocator: freed buffers stay in the process for the
next step instead of going back to the kernel.  Importing this module
applies that policy once, through glibc's ``mallopt``; it has no switch.

- ``M_TRIM_THRESHOLD`` is 1 GiB, above any step's freed working set (a
  ``finetune_offload`` step moves 111 MB of host copies,
  ``memory.ledger.bytes_per_step``).  At glibc's default the top of the
  heap goes back to the kernel at the end of every step, and a steady
  ``finetune_offload`` step faults it in again: 4 470-6 244 minor page
  faults a step at seeds 0-2, against 17-81 with the policy.
- ``M_MMAP_THRESHOLD`` is fixed at 32 MiB, glibc's own ceiling for its
  dynamic threshold on 64-bit.  Setting either value turns the dynamic
  threshold off.  With the trim threshold alone the mmap threshold stays
  at 128 KiB, every larger buffer is mmapped and faulted in again on each
  use, and the same step takes 41 000-44 000 faults.  A step that still
  mmapped one 32 MiB buffer would take 8 192 faults for it alone.

The cost is resident memory that is not handed back: ``ru_maxrss`` over a
whole ``finetune_offload`` benchmark run goes from 126 to 132 MB (median of
12 runs).  The policy changes no arithmetic, so every result is
byte-identical with it or without it.  Where libc is not glibc nothing is
called, and :data:`HOST_HEAP_RETAINED` reads False.
"""

from __future__ import annotations

import ctypes
import os

from repro.memory.tracker import MemoryTracker, global_registry

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
# glibc's 64-bit ceiling for its dynamic threshold: fixed lower, every buffer
# above it would be mmapped and faulted in again on each use.
_MMAP_THRESHOLD_BYTES = 32 << 20
# Above a step's freed working set (111 MB of host copies a finetune_offload
# step), so the heap top is never handed back between steps.
_TRIM_THRESHOLD_BYTES = 1 << 30


def _retain_freed_host_memory() -> bool:
    """Apply the heap policy above; True when glibc accepted both settings."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc that lacks the name
        return False
    if not libc.startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    )


HOST_HEAP_RETAINED = _retain_freed_host_memory()


class Device:
    """A named memory domain.

    Two Device objects with the same name are the same device (interned via
    :func:`device`); identity comparisons are therefore safe.
    """

    def __init__(self, name: str, tracker: MemoryTracker) -> None:
        self.name = name
        self.tracker = tracker

    def __repr__(self) -> str:
        return f"device({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Device) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


_INTERNED: dict[str, Device] = {}


def device(spec: "Device | str") -> Device:
    """Resolve a device name (or pass through a Device) to the interned object."""
    if isinstance(spec, Device):
        return spec
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"invalid device spec {spec!r}")
    dev = _INTERNED.get(spec)
    if dev is None:
        dev = Device(spec, global_registry().get(spec))
        _INTERNED[spec] = dev
    return dev


CPU = device("cpu")
GPU = device("gpu")
