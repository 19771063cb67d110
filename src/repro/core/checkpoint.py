"""Crash-safe checkpoint/resume for the eDKM fine-tune.

The phase of the paper's recipe that runs for days is the train-time
clustering fine-tune (:func:`repro.llm.finetune.train_causal_lm`).  A run
killed at any point -- by a preempted node or an OOM reaper -- and started
again with the same ``checkpoint=`` path must continue *bit-identically*:
its losses, parameters, AdamW state and finalized palettes equal those of
a run that was never interrupted.  This module is the persistence layer
that makes that claim checkable.

A checkpoint is one ``.npz`` archive, rewritten after every optimizer
step.  It holds every parameter by name in its storage dtype, AdamW's
``m`` / ``v`` by parameter name and its ``step_count``, each
:class:`~repro.core.compressor.ClusteredLinear`'s
:class:`~repro.core.dkm.ClusterState`, and the losses of the steps done
(their count is the batch cursor).  Nothing else carries from one step to
the next: a step-cache entry is keyed on its weight's storage version,
which every optimizer step moves, and the saved-tensor pipeline does not
change the math.

Durability contract:

- **Atomic**: the archive is written to a same-directory temp file,
  fsynced, then ``os.replace``d over the target -- a crash mid-save
  leaves either the old checkpoint or the new one, never a torn file,
  and a save that raises removes its temp file.
- **Tamper-evident**: a blake2b digest over every array (name, dtype,
  shape and bytes) is stored inside the file and re-verified on load;
  bit-rot surfaces as :class:`CheckpointCorrupt`, never as silently-wrong
  weights.
- **Config-pinned**: resuming under different math would silently
  diverge, so the file pins a digest of the :class:`~repro.llm.finetune.
  FinetuneConfig`, each clustered layer's
  :class:`~repro.core.config.DKMConfig`, and the parameter names, shapes
  and dtypes; load refuses a mismatch.  The saved-tensor pipeline is not
  pinned: losses are bit-identical with and without it.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from typing import TYPE_CHECKING

import numpy as np

from repro.core.compressor import ClusteredLinear
from repro.core.dkm import ClusterState
from repro.nn import Module

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.llm.finetune import FinetuneConfig
    from repro.optim import AdamW

CHECKPOINT_VERSION = 6
"""Schema version stamped into (and verified from) every checkpoint."""


class CheckpointError(RuntimeError):
    """A checkpoint cannot be written or does not fit this run."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file failed its integrity digest or does not parse."""


def _clustered(model: Module) -> dict[str, ClusteredLinear]:
    return {
        name: module
        for name, module in model.named_modules()
        if isinstance(module, ClusteredLinear)
    }


def _config_pin(model: Module, config: "FinetuneConfig") -> str:
    """Digest of everything a checkpoint's math depends on.

    ``repr`` of the config dataclasses is deterministic and covers every
    field; two runs agree on the pin iff resuming one from the other's
    checkpoint is bit-safe.
    """
    lines = [repr(config)]
    lines += [f"{name} {layer.dkm_config!r}" for name, layer in _clustered(model).items()]
    lines += [
        f"{name} {tuple(param.shape)} {param.dtype.name}"
        for name, param in model.named_parameters()
    ]
    text = "\n".join(lines)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _digest(arrays: dict[str, np.ndarray]) -> str:
    """Blake2b over every array but the digest: name, dtype, shape, bytes."""
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(arrays):
        if key == "digest":
            continue
        array = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def write_checkpoint(
    path: str,
    model: Module,
    optimizer: "AdamW",
    config: "FinetuneConfig",
    losses: list[float],
) -> str:
    """Atomically persist the fine-tune's state to ``path``; return digest.

    ``optimizer`` was built over ``model.parameters()``, so its moments'
    positions follow ``model.named_parameters()``.  tmp + fsync +
    ``os.replace`` in the target's directory, so the rename is atomic on
    POSIX and a crash at any byte offset leaves a valid file.  A save that
    raises unlinks its temp file before the error propagates, leaving the
    previous checkpoint untouched.
    """
    arrays = {
        "version": np.array(CHECKPOINT_VERSION),
        "config": np.array(_config_pin(model, config)),
        "losses": np.array(losses, dtype=np.float64),
        "step_count": np.array(optimizer.step_count),
    }
    for index, (name, param) in enumerate(model.named_parameters()):
        arrays[f"param:{name}"] = param.numpy()
        if optimizer.m[index] is not None:
            arrays[f"m:{name}"] = optimizer.m[index]
            arrays[f"v:{name}"] = optimizer.v[index]
    for name, layer in _clustered(model).items():
        state = layer.clusterer.state
        if state is not None:
            arrays[f"cluster:{name}:centroids"] = state.centroids
            arrays[f"cluster:{name}:temperature"] = np.array(state.temperature)
            arrays[f"cluster:{name}:iterations"] = np.array(state.iterations_run)
    digest = _digest(arrays)
    arrays["digest"] = np.array(digest)
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return digest


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Load and integrity-check a checkpoint file (no model needed)."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint {path!r}: {exc}") from exc
    if "digest" not in arrays:
        raise CheckpointCorrupt(f"checkpoint {path!r} has no digest field")
    version = arrays["version"].tolist() if "version" in arrays else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} is schema version {version}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    expected = _digest(arrays)
    if str(arrays["digest"]) != expected:
        raise CheckpointCorrupt(
            f"checkpoint {path!r} failed its integrity digest "
            f"(stored {arrays['digest']}, computed {expected})"
        )
    return arrays


def load_checkpoint(
    path: str, model: Module, optimizer: "AdamW", config: "FinetuneConfig"
) -> list[float]:
    """Read, verify and install ``path``; return the losses of the steps done.

    Parameters are written in place (identity and device kept), the
    optimizer's moments and step count replaced, and every clustered
    layer's state set to the saved one (``None`` where none was saved).
    """
    arrays = read_checkpoint(path)
    names = [name for name, _ in model.named_parameters()]
    recorded = {key[len("param:") :] for key in arrays if key.startswith("param:")}
    if set(names) != recorded:
        missing = sorted(set(names) - recorded)
        extra = sorted(recorded - set(names))
        raise CheckpointError(
            f"checkpoint parameter set does not match the model "
            f"(missing from checkpoint: {missing}, unknown to model: {extra})"
        )
    if str(arrays["config"]) != _config_pin(model, config):
        raise CheckpointError(
            "checkpoint was written under a different fine-tune or clustering "
            "config; resuming would silently diverge"
        )
    for index, (name, param) in enumerate(model.named_parameters()):
        param.copy_(arrays[f"param:{name}"])
        optimizer.m[index] = arrays.get(f"m:{name}")
        optimizer.v[index] = arrays.get(f"v:{name}")
    optimizer.step_count = int(arrays["step_count"])
    for name, layer in _clustered(model).items():
        key = f"cluster:{name}:"
        layer.clusterer.state = (
            ClusterState(
                centroids=arrays[key + "centroids"],
                temperature=float(arrays[key + "temperature"]),
                iterations_run=int(arrays[key + "iterations"]),
            )
            if key + "centroids" in arrays
            else None
        )
    return arrays["losses"].tolist()


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorrupt",
    "CheckpointError",
    "load_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
]
