"""Tensor serialization: ``.npz`` state-dicts.

:func:`save_state` / :func:`load_state` write and read durable
name->tensor archives: an npz payload plus a JSON sidecar carrying the
*logical* dtypes numpy cannot represent (e.g. bfloat16).
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.tensor.device import CPU, Device, as_device
from repro.tensor.dtype import get_dtype
from repro.tensor.tensor import Tensor


def save_state(path: str, state: dict[str, Tensor]) -> None:
    """Write a name->tensor mapping to ``path`` (npz + dtype sidecar)."""
    arrays = {name: t.numpy() for name, t in state.items()}
    dtypes = {name: t.dtype.name for name, t in state.items()}
    np.savez(path, **arrays)
    with open(_sidecar(path), "w", encoding="utf-8") as fh:
        json.dump(dtypes, fh)


def load_state(path: str, device: Device | str = CPU) -> dict[str, Tensor]:
    """Read a mapping written by :func:`save_state`."""
    dev = as_device(device)
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    dtype_names: dict[str, str] = {}
    sidecar = _sidecar(path)
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as fh:
            dtype_names = json.load(fh)
    out = {}
    for name, array in arrays.items():
        dtype = get_dtype(dtype_names[name]) if name in dtype_names else None
        out[name] = Tensor.from_numpy(array, dtype=dtype, device=dev)
    return out


def _sidecar(path: str) -> str:
    base = path[:-4] if path.endswith(".npz") else path
    return base + ".dtypes.json"

