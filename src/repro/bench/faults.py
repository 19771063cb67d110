"""Crash-safe resume benchmark: kill a compression run, resume it, compare.

One multi-sweep ``precluster`` workload over a stack of bias-free Linears
runs twice from identically seeded weights:

- **uninterrupted** -- ``n_sweeps`` sweeps straight through;
- **kill-then-resume** -- one sweep, ``save_checkpoint``, the compressor
  dropped (the "crash"), then a fresh compressor built over the same
  weights, ``resume``\\ d from the checkpoint, and taken through the
  remaining sweeps.

The gate is the checkpoint contract end to end: the resumed run's final
centroids, assignments, temperatures and reconstruction errors, and its
per-layer step-cache counters, equal the uninterrupted run's.
``python -m repro.bench faults`` writes ``BENCH_faults.json`` (schema:
``docs/benchmarks.md``).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

import repro.nn as nn
from repro.core.compressor import ModelCompressor
from repro.core.config import DKMConfig


class _LinearStack(nn.Module):
    """``n_layers`` bias-free Linears ``layer{i}``, seeded ``seed + i``."""

    def __init__(
        self, n_layers: int, in_features: int, out_features: int, seed: int
    ) -> None:
        super().__init__()
        for i in range(n_layers):
            setattr(
                self,
                f"layer{i}",
                nn.Linear(
                    in_features,
                    out_features,
                    bias=False,
                    rng=np.random.default_rng(seed + i),
                ),
            )


def _layer_stats(compressor: ModelCompressor) -> dict[str, dict]:
    return {
        name: asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


def _digest(results: dict) -> str:
    """blake2b over each layer's name, centroids, assignments, temperature and
    reconstruction error: equal digests mean bit-identical sweep results."""
    digest = hashlib.blake2b(digest_size=16)
    for name, result in results.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.centroids).tobytes())
        digest.update(np.ascontiguousarray(result.assignments).tobytes())
        digest.update(repr((result.temperature, result.reconstruction_error)).encode())
    return digest.hexdigest()


def _run_sweeps(compressor: ModelCompressor, n_sweeps: int) -> dict:
    results: dict = {}
    for _ in range(n_sweeps):
        results = compressor.precluster()
    return results


@dataclass
class FaultBenchResult:
    """Everything :func:`run_faults` measured, JSON-serializable."""

    n_layers: int = 0
    weights_per_layer: int = 0
    resume_bit_identical: bool = False
    resume_stats_identical: bool = False
    resume_sweeps_completed: int = 0
    checkpoint_digest: str = ""

    def to_json_dict(self) -> dict:
        """The ``BENCH_faults.json`` payload (see ``docs/benchmarks.md``)."""
        return {
            "benchmark": "faults",
            "n_layers": self.n_layers,
            "weights_per_layer": self.weights_per_layer,
            "resume": {
                "bit_identical": self.resume_bit_identical,
                "stats_identical": self.resume_stats_identical,
                "sweeps_completed_at_checkpoint": self.resume_sweeps_completed,
                "checkpoint_digest": self.checkpoint_digest,
            },
        }

    def render(self) -> str:
        return (
            f"resume: checkpoint@sweep {self.resume_sweeps_completed} "
            f"digest={self.checkpoint_digest[:12]}...  "
            f"bit-identical={self.resume_bit_identical}  "
            f"stats-identical={self.resume_stats_identical}"
        )

    def failures(self) -> list[str]:
        """The checkpoint contract: every violated clause."""
        failures = []
        if not self.resume_bit_identical:
            failures.append(
                "kill-then-resume: final outputs differ from uninterrupted run"
            )
        if not self.resume_stats_identical:
            failures.append(
                "kill-then-resume: step-cache counters differ from "
                "uninterrupted run"
            )
        return failures


def run_faults(
    n_layers: int = 4,
    in_features: int = 64,
    out_features: int = 48,
    seed: int = 0,
    n_sweeps: int = 3,
) -> FaultBenchResult:
    """Kill-then-resume: checkpoint after sweep 1, resume, finish, compare.

    The resumed compressor is built fresh over identically seeded
    weights, exactly as a restarted job would be.
    """
    result = FaultBenchResult(
        n_layers=n_layers, weights_per_layer=in_features * out_features
    )

    def build() -> ModelCompressor:
        stack = _LinearStack(n_layers, in_features, out_features, seed)
        stack.to("gpu")
        compressor = ModelCompressor(DKMConfig(bits=3, iters=3))
        compressor.compress(stack)
        return compressor

    uninterrupted = build()
    ref_results = _run_sweeps(uninterrupted, n_sweeps)
    ref_stats = _layer_stats(uninterrupted)

    with tempfile.TemporaryDirectory(prefix="bench_faults_") as tmpdir:
        path = os.path.join(tmpdir, "ckpt.json")
        first = build()
        first.precluster()
        result.checkpoint_digest = first.save_checkpoint(path)
        del first  # the simulated crash

        resumed = build()
        payload = resumed.resume(path)
        result.resume_sweeps_completed = payload["sweeps_completed"]
        res_results = _run_sweeps(resumed, n_sweeps - 1)
    result.resume_bit_identical = _digest(ref_results) == _digest(res_results)
    result.resume_stats_identical = ref_stats == _layer_stats(resumed)
    return result


def run(quick: bool = False, seed: int = 0) -> FaultBenchResult:
    """``python -m repro.bench faults``; quick = smaller layers."""
    features = 48 if quick else 96
    return run_faults(in_features=features, out_features=features, seed=seed)


__all__ = [
    "FaultBenchResult",
    "run",
    "run_faults",
]
