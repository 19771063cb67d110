"""Optimizers used by the fine-tuning loops."""

from repro.optim.adamw import AdamW
from repro.optim.clip import clip_grad_norm_
from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD

__all__ = [
    "AdamW",
    "clip_grad_norm_",
    "Optimizer",
    "SGD",
]
