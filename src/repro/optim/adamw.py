"""AdamW with decoupled weight decay (the paper's fine-tuning optimizer:
lr 5e-5, betas (0.9, 0.95), weight decay 0)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer


class AdamW(Optimizer):
    """``m`` and ``v`` hold each parameter's moments by its position in
    ``params`` (``None`` until its first gradient), so a checkpoint can
    name them after the parameters they belong to."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 5e-5,
        betas: tuple[float, float] = (0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m: list[np.ndarray | None] = [None] * len(self.params)
        self.v: list[np.ndarray | None] = [None] * len(self.params)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad._compute()
            m = self.m[index]
            v = self.v[index]
            if m is None:
                m = np.zeros_like(grad)
                v = np.zeros_like(grad)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self.m[index], self.v[index] = m, v

            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            values = param._compute()
            if self.weight_decay:
                values = values * (1.0 - self.lr * self.weight_decay)
            param.copy_(values - self.lr * update)
