"""Fine-tuning loops.

Mirrors the paper's recipe (Section 3): AdamW with betas (0.9, 0.95) and
zero weight decay, global gradient-norm clipping at 1.0, and -- when a
:class:`~repro.core.offload.SavedTensorPipeline` is supplied -- every
forward/backward runs inside a pipeline step so saved tensors are offloaded,
marshaled and sharded exactly as eDKM prescribes.  With a ``checkpoint``
path the loop survives being killed: it rewrites the file after every
optimizer step and, started again, resumes from it bit-identically
(:mod:`repro.core.checkpoint`).
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.checkpoint import load_checkpoint, write_checkpoint
from repro.core.offload import SavedTensorPipeline
from repro.nn import Module, cross_entropy
from repro.optim import AdamW, clip_grad_norm_

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.data.loader import Batch


@dataclass
class FinetuneConfig:
    """Optimizer hyper-parameters (paper defaults scaled for small models)."""

    lr: float = 3e-3
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.0
    grad_clip: float = 1.0


@dataclass
class TrainResult:
    losses: list[float] = field(default_factory=list)
    steps: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_causal_lm(
    model: Module,
    batches: Iterable[Batch],
    config: FinetuneConfig | None = None,
    pipeline: SavedTensorPipeline | None = None,
    max_steps: int | None = None,
    checkpoint: str | None = None,
) -> TrainResult:
    """Train ``model`` on an iterable of :class:`Batch` objects.

    ``pipeline`` scopes each step in the eDKM saved-tensor hooks; without it
    training runs with default (on-device) saved tensors.  With
    ``max_steps=n`` no more than ``n`` batches are pulled from ``batches``.
    Gradients are cleared at the top of each step, so after return every
    trainable parameter still holds the last step's gradient.

    ``checkpoint`` is a file path.  If the file exists it is verified and
    restored, and the batches its steps consumed are skipped, so a run
    restarted over the same model seed and batch stream continues where it
    stopped (``max_steps`` still counts from the first batch).  After every
    optimizer step the file is rewritten atomically.
    """
    config = config or FinetuneConfig()
    optimizer = AdamW(
        model.parameters(),
        lr=config.lr,
        betas=config.betas,
        weight_decay=config.weight_decay,
    )
    result = TrainResult()
    if checkpoint is not None and os.path.exists(checkpoint):
        result.losses = load_checkpoint(checkpoint, model, optimizer, config)
        result.steps = len(result.losses)
    model.train()
    for batch in itertools.islice(batches, result.steps, max_steps):
        # The forward starts from the parameters and its batch alone: the
        # previous step's gradients are cleared here, its loss is dropped
        # below, and the logits are never bound to a name.
        optimizer.zero_grad()
        scope = pipeline.step() if pipeline is not None else contextlib.nullcontext()
        with scope:
            loss = cross_entropy(model(batch.tokens), batch.targets)
            loss.backward()
        clip_grad_norm_(model.parameters(), config.grad_clip)
        optimizer.step()
        result.losses.append(loss.item())
        del loss
        result.steps += 1
        if checkpoint is not None:
            write_checkpoint(checkpoint, model, optimizer, config, result.losses)
    return result
