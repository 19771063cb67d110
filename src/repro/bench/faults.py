"""Crash-safe resume benchmark: kill an eDKM fine-tune, resume it, compare.

A MICRO LLaMA-architecture model, every Linear wrapped for 3-bit eDKM and
every step run inside the M+U+S saved-tensor pipeline, is fine-tuned on
instruction batches twice from the same seed:

- **uninterrupted** -- ``n_steps`` steps straight through;
- **kill-then-resume** -- the batch stream dies after step ``kill_after``
  (the "crash": the checkpoint written after that step is on disk), then
  the model is rebuilt from its seed and ``train_causal_lm`` is called
  again with the same ``checkpoint=`` path and the batch stream from its
  start.

The gate is the checkpoint contract end to end: the resumed run's losses
equal the uninterrupted run's, and so do its final checkpoint (every
parameter, AdamW's moments and step count, every cluster state) and its
finalized palettes.  ``python -m repro.bench faults`` writes
``BENCH_faults.json`` (schema: ``docs/benchmarks.md``).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

import repro.tensor as rt
from repro.core import (
    CompressionReport,
    DKMConfig,
    EDKMConfig,
    ModelCompressor,
    SavedTensorPipeline,
    read_checkpoint,
)
from repro.data import FactWorld, alpaca_batches, corpus_vocabulary, generate_alpaca
from repro.distributed import LearnerGroup
from repro.llm import MICRO, FinetuneConfig, WordTokenizer, build_model, train_causal_lm

BATCH_SIZE = 8


class _Killed(Exception):
    """The simulated crash: the batch stream dies between two steps."""


def _killed_after(batches: Iterable, n: int) -> Iterator:
    for index, batch in enumerate(batches):
        if index == n:
            raise _Killed
        yield batch


def _digest(report: CompressionReport) -> str:
    """blake2b over each palettized tensor's name, LUT and packed indices:
    equal digests mean bit-identical shipped artifacts."""
    digest = hashlib.blake2b(digest_size=16)
    for name, tensor in report.palettized.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(tensor.lut).tobytes())
        digest.update(np.ascontiguousarray(tensor.packed).tobytes())
    return digest.hexdigest()


@dataclass
class FaultBenchResult:
    """Everything :func:`run_faults` measured, JSON-serializable."""

    n_steps: int = 0
    kill_after: int = 0
    resume_bit_identical: bool = False
    resume_losses_identical: bool = False
    checkpoint_digest: str = ""

    def to_json_dict(self) -> dict:
        """The ``BENCH_faults.json`` payload (see ``docs/benchmarks.md``)."""
        return {
            "benchmark": "faults",
            "n_steps": self.n_steps,
            "resume": {
                "bit_identical": self.resume_bit_identical,
                "losses_identical": self.resume_losses_identical,
                "killed_after_step": self.kill_after,
                "checkpoint_digest": self.checkpoint_digest,
            },
        }

    def render(self) -> str:
        return (
            f"resume: killed after step {self.kill_after} of {self.n_steps}  "
            f"final checkpoint digest={self.checkpoint_digest[:12]}...  "
            f"bit-identical={self.resume_bit_identical}  "
            f"losses-identical={self.resume_losses_identical}"
        )

    def failures(self) -> list[str]:
        """The checkpoint contract: every violated clause."""
        failures = []
        if not self.resume_bit_identical:
            failures.append(
                "kill-then-resume: final outputs differ from uninterrupted run"
            )
        if not self.resume_losses_identical:
            failures.append("kill-then-resume: losses differ from uninterrupted run")
        return failures


def run_faults(n_steps: int = 8, kill_after: int = 5, seed: int = 0) -> FaultBenchResult:
    """Kill-then-resume: die after step ``kill_after``, resume, finish, compare.

    The resumed model is built fresh from the seed, exactly as a restarted
    job would build it; only the checkpoint file carries over.
    """
    world = FactWorld(seed=seed)
    tokenizer = WordTokenizer(corpus_vocabulary(world))
    examples = generate_alpaca(world, n_steps * BATCH_SIZE, seed=seed + 1)
    config = EDKMConfig(group=LearnerGroup(8))

    def fine_tune(path: str, batches: Iterable) -> tuple[list[float], str]:
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=seed)
        model.to(rt.GPU)
        compressor = ModelCompressor(DKMConfig(bits=3, iters=2), config)
        compressor.compress(model)
        losses = train_causal_lm(
            model,
            batches,
            FinetuneConfig(lr=1e-3),
            pipeline=SavedTensorPipeline(config),
            checkpoint=path,
        ).losses
        return losses, _digest(compressor.finalize(model))

    def stream():
        return alpaca_batches(examples, tokenizer, BATCH_SIZE, rt.GPU, seed=seed + 2)

    result = FaultBenchResult(n_steps=n_steps)
    with tempfile.TemporaryDirectory(prefix="bench_faults_") as tmpdir:
        reference = os.path.join(tmpdir, "uninterrupted.npz")
        ref_losses, ref_artifacts = fine_tune(reference, stream())
        path = os.path.join(tmpdir, "resumed.npz")
        try:
            fine_tune(path, _killed_after(stream(), kill_after))
        except _Killed:
            pass
        result.kill_after = len(read_checkpoint(path)["losses"])
        losses, artifacts = fine_tune(path, stream())
        ref_digest = str(read_checkpoint(reference)["digest"])
        result.checkpoint_digest = str(read_checkpoint(path)["digest"])
    result.resume_bit_identical = (
        result.checkpoint_digest == ref_digest and artifacts == ref_artifacts
    )
    result.resume_losses_identical = losses == ref_losses
    return result


def run(quick: bool = False, seed: int = 0) -> FaultBenchResult:
    """``python -m repro.bench faults``; quick = fewer steps."""
    if quick:
        return run_faults(n_steps=4, kill_after=2, seed=seed)
    return run_faults(seed=seed)


__all__ = [
    "FaultBenchResult",
    "run",
    "run_faults",
]
