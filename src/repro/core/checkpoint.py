"""Crash-safe checkpoint/resume for model compression sweeps.

A days-long train-time clustering run must survive being killed at any
point -- by a preempted node or an OOM reaper -- and
resume *bit-identically*: the sweeps after a kill-and-resume must
produce the same centroids, assignments, palettized artifacts, and step
cache counters as a run that was never interrupted.  This module is the
persistence layer that makes that claim checkable.

A checkpoint is sweep-granular: :meth:`~repro.core.compressor.
ModelCompressor.save_checkpoint` snapshots, per wrapped layer, the exact
clustering state (centroids / temperature / iteration count, round-
tripped through hex-encoded IEEE-754 bytes so not one ulp is lost), the
layer's *warm token* (whether its step cache covers the current weight
bytes), and its hit/miss counters -- plus the compressor's sweep count
and a config epoch digest.  ``resume`` restores all of it: states are
reassigned, each warm layer's step cache is refilled by one
:meth:`~repro.core.fastpath.StepCache.uniquify` of its weight (so the
first post-resume sweep hits, exactly as the uninterrupted run would),
and then the counters are overwritten via
:meth:`~repro.core.fastpath.StepCache.restore_counters`.

Durability contract:

- **Atomic**: the payload is written to a same-directory temp file,
  fsynced, then ``os.replace``d over the target -- a crash mid-save
  leaves either the old checkpoint or the new one, never a torn file,
  and a save that raises removes its temp file.
- **Tamper-evident**: a blake2b digest over the canonical JSON payload
  is stored inside the file and re-verified on load; bit-rot surfaces
  as :class:`CheckpointCorrupt`, never as silently-wrong weights.
- **Config-pinned**: resuming under a different clustering config would
  silently diverge, so the payload pins a digest of the
  :class:`~repro.core.config.DKMConfig` and load refuses on mismatch.
- **Journaled**: every save appends a one-line record (sweep count,
  digest, layer count) to a ``<path>.journal`` sidecar, so operators
  can audit the checkpoint history of a long run.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dkm import ClusterState
from repro.core.fastpath import FastPathStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compressor import ModelCompressor

CHECKPOINT_VERSION = 5
"""Schema version stamped into (and verified from) every checkpoint.

Version 2: ``EDKMConfig`` lost five fields.  Version 3: ``DKMConfig`` lost
its dense row-chunk field and the payload its configured-backend key.
Version 4: the payload lost ``active_backend`` (sweeps always run the
serial loop) and ``EDKMConfig`` its ``search_strategy`` field.  Version
5: ``DKMConfig`` lost its dense-path byte limit (now a module constant of
:mod:`repro.core.dkm`).  Each
change moves the ``config_epoch`` digest of every run, so older files
are refused by version rather than with a misleading "different
clustering config"."""


class CheckpointError(RuntimeError):
    """A checkpoint cannot be written or does not fit this compressor."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file failed its integrity digest or does not parse."""


def _config_epoch(compressor: "ModelCompressor") -> str:
    """Digest of the clustering configuration a checkpoint is valid for.

    ``repr`` of the frozen config dataclasses is deterministic and covers
    every field that influences clustering math; two runs agree on the
    epoch iff resuming one from the other's checkpoint is bit-safe.
    """
    text = f"{compressor.dkm_config!r}|{compressor.edkm_config!r}"
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _state_to_record(state: "ClusterState | None") -> dict | None:
    """Encode a cluster state with exact (hex-byte) float round-tripping."""
    if state is None:
        return None
    centroids = np.ascontiguousarray(state.centroids, dtype=np.float32)
    return {
        "centroids": centroids.tobytes().hex(),
        "k": int(centroids.size),
        "temperature": struct.pack("<d", float(state.temperature)).hex(),
        "iterations_run": int(state.iterations_run),
    }


def _state_from_record(record: dict | None) -> "ClusterState | None":
    """Decode :func:`_state_to_record`'s output back to a live state."""
    if record is None:
        return None
    centroids = np.frombuffer(
        bytes.fromhex(record["centroids"]), dtype=np.float32
    ).copy()
    if centroids.size != record["k"]:
        raise CheckpointCorrupt(
            f"centroid payload holds {centroids.size} values, header says "
            f"{record['k']}"
        )
    return ClusterState(
        centroids=centroids,
        temperature=struct.unpack("<d", bytes.fromhex(record["temperature"]))[0],
        iterations_run=int(record["iterations_run"]),
    )


def _payload_digest(payload: dict) -> str:
    """Blake2b over the canonical JSON of ``payload`` sans its digest."""
    stripped = {key: value for key, value in payload.items() if key != "digest"}
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def build_payload(compressor: "ModelCompressor") -> dict:
    """The complete, digested, JSON-serializable checkpoint payload."""
    layers = {}
    for name, wrapper in compressor.wrapped.items():
        cache = wrapper.step_cache
        stats = cache.stats
        layers[name] = {
            "state": _state_to_record(wrapper.clusterer.state),
            "warm": cache.is_warm(
                wrapper.inner.weight, wrapper.dkm_config.weight_dtype
            ),
            "stats": {
                "uniquify_hits": stats.uniquify_hits,
                "uniquify_misses": stats.uniquify_misses,
                "table_hits": stats.table_hits,
                "table_misses": stats.table_misses,
            },
        }
    payload = {
        "version": CHECKPOINT_VERSION,
        "config_epoch": _config_epoch(compressor),
        "sweeps_completed": compressor.sweeps_completed,
        "layers": layers,
    }
    payload["digest"] = _payload_digest(payload)
    return payload


def write_checkpoint(compressor: "ModelCompressor", path: str) -> str:
    """Atomically persist ``compressor``'s state to ``path``; return digest.

    tmp + fsync + ``os.replace`` in the target's directory, so the
    rename is atomic on POSIX and a crash at any byte offset leaves a
    valid file.  A save that raises unlinks its temp file before the
    error propagates, leaving the previous checkpoint untouched.  A
    one-line history record is appended to ``<path>.journal`` after the
    rename lands.
    """
    payload = build_payload(compressor)
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    data = json.dumps(payload, sort_keys=True, indent=1)
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    journal_line = json.dumps(
        {
            "sweeps_completed": payload["sweeps_completed"],
            "digest": payload["digest"],
            "layers": len(payload["layers"]),
        },
        sort_keys=True,
    )
    with open(f"{path}.journal", "a", encoding="utf-8") as handle:
        handle.write(journal_line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return payload["digest"]


def read_checkpoint(path: str) -> dict:
    """Load and integrity-check a checkpoint file (no compressor needed)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or "digest" not in payload:
        raise CheckpointCorrupt(f"checkpoint {path!r} has no digest field")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} is schema version {payload.get('version')}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    expected = _payload_digest(payload)
    if payload["digest"] != expected:
        raise CheckpointCorrupt(
            f"checkpoint {path!r} failed its integrity digest "
            f"(stored {payload['digest']}, computed {expected})"
        )
    return payload


def restore_payload(compressor: "ModelCompressor", payload: dict) -> None:
    """Install a verified payload into ``compressor`` (bit-exact resume)."""
    if payload["config_epoch"] != _config_epoch(compressor):
        raise CheckpointError(
            "checkpoint was written under a different clustering config; "
            "resuming would silently diverge"
        )
    names = set(compressor.wrapped)
    recorded = set(payload["layers"])
    if names != recorded:
        missing = sorted(names - recorded)
        extra = sorted(recorded - names)
        raise CheckpointError(
            f"checkpoint layer set does not match the model "
            f"(missing from checkpoint: {missing}, unknown to model: {extra})"
        )
    for name, wrapper in compressor.wrapped.items():
        record = payload["layers"][name]
        wrapper.clusterer.state = _state_from_record(record["state"])
        cache = wrapper.step_cache
        cache.invalidate()
        if record["warm"]:
            # The interrupted run held the decomposition of these exact
            # bytes, so the first post-resume uniquify must hit, as it
            # would have; the miss counted here is overwritten below.
            cache.uniquify(wrapper.inner.weight, wrapper.dkm_config.weight_dtype)
        stats = record["stats"]
        cache.restore_counters(
            FastPathStats(
                uniquify_hits=stats["uniquify_hits"],
                uniquify_misses=stats["uniquify_misses"],
                table_hits=stats["table_hits"],
                table_misses=stats["table_misses"],
            )
        )
    compressor.sweeps_completed = int(payload["sweeps_completed"])


def load_checkpoint(compressor: "ModelCompressor", path: str) -> dict:
    """Read, verify, and install ``path``; return the payload for audits."""
    payload = read_checkpoint(path)
    restore_payload(compressor, payload)
    return payload


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorrupt",
    "CheckpointError",
    "build_payload",
    "load_checkpoint",
    "read_checkpoint",
    "restore_payload",
    "write_checkpoint",
]
