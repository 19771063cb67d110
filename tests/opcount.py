"""Count autograd dispatches and saved tensors by op name.

``count_ops()`` wraps ``Function.apply`` and ``Context.save_for_backward``
for the length of a ``with`` block, so a test can pin how many ops a
forward records and how many tensors each one saves.  Run as a script it
prints the per-op table of one benchmark-shaped ``finetune_mus`` training
step (``docs/edkm-pipeline.md`` carries a copy)::

    PYTHONPATH=src python tests/opcount.py
"""

from __future__ import annotations

import contextlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

import repro.tensor as rt
from repro.tensor.autograd import Context, Function


@dataclass
class OpCounts:
    """``Function.apply`` calls and tensors saved for backward, by op name."""

    dispatches: Counter = field(default_factory=Counter)
    saved: Counter = field(default_factory=Counter)

    def table(self) -> str:
        """A markdown table, busiest op first, totals last."""
        lines = ["| op | dispatches | saved tensors |", "|---|---:|---:|"]
        for name, n in sorted(self.dispatches.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"| `{name}` | {n} | {self.saved[name]} |")
        lines.append(
            f"| **total** | **{sum(self.dispatches.values())}** "
            f"| **{sum(self.saved.values())}** |"
        )
        return "\n".join(lines)


@contextlib.contextmanager
def count_ops() -> Iterator[OpCounts]:
    """Count every op applied (and what it saves) inside the block."""
    counts = OpCounts()
    running: list[str] = []  # innermost op last: an op's forward may apply others
    original_apply = Function.__dict__["apply"]
    original_save = Context.save_for_backward

    def apply(cls, *args, **kwargs):
        name = cls.op_name or cls.__name__
        counts.dispatches[name] += 1
        running.append(name)
        try:
            return original_apply.__func__(cls, *args, **kwargs)
        finally:
            running.pop()

    def save_for_backward(ctx, *tensors):
        counts.saved[running[-1]] += len(tensors)
        original_save(ctx, *tensors)

    Function.apply = classmethod(apply)
    Context.save_for_backward = save_for_backward
    try:
        yield counts
    finally:
        Function.apply = original_apply
        Context.save_for_backward = original_save


def bench_shaped_model():
    """The e2e benchmark's architecture: 15 Linears over 2 decoder layers."""
    from repro import nn

    return nn.Transformer(
        vocab_size=64, dim=128, n_layers=2, n_heads=8, hidden_dim=256, max_seq_len=64
    ).to("gpu")


def training_step_counts() -> OpCounts:
    """One ``finetune_mus``-configured step: 3-bit eDKM with M + U + S over 8 learners."""
    from repro import nn
    from repro.core import DKMConfig, EDKMConfig, ModelCompressor, SavedTensorPipeline
    from repro.distributed import LearnerGroup

    model = bench_shaped_model()
    config = EDKMConfig(group=LearnerGroup(8))
    ModelCompressor(DKMConfig(bits=3, iters=4), edkm_config=config).compress(model)
    rng = np.random.default_rng(0)
    tokens, targets = (
        rt.tensor(rng.integers(0, model.vocab_size, (16, 48)), device="gpu") for _ in range(2)
    )
    model.train()
    with count_ops() as counts, SavedTensorPipeline(config).step():
        nn.cross_entropy(model(tokens), targets).backward()
    return counts


if __name__ == "__main__":
    print(training_step_counts().table())
