"""Calibration-data capture for activation-aware baselines (GPTQ, AWQ).

Records, per Linear layer, the inputs it saw while a calibration pass runs
-- from which GPTQ builds its Hessian ``2 X^T X`` and AWQ its per-channel
activation magnitudes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.nn import Linear, Module, named_linears
from repro.tensor.tensor import Tensor


@dataclass
class LayerCalibration:
    """Accumulated input statistics for one Linear."""

    in_features: int
    hessian: np.ndarray = field(init=False)  # (in, in) running 2 X^T X
    abs_mean: np.ndarray = field(init=False)  # (in,) running mean |x|
    n_samples: int = 0
    sample_inputs: list[np.ndarray] = field(default_factory=list)
    max_samples: int = 4096

    def __post_init__(self) -> None:
        self.hessian = np.zeros((self.in_features, self.in_features), dtype=np.float64)
        self.abs_mean = np.zeros(self.in_features, dtype=np.float64)

    def update(self, x: np.ndarray) -> None:
        """``x``: (n, in_features) flattened layer inputs."""
        n = x.shape[0]
        self.hessian += 2.0 * (x.T @ x)
        total = self.abs_mean * self.n_samples + np.abs(x).sum(axis=0)
        self.n_samples += n
        self.abs_mean = total / max(self.n_samples, 1)
        budget = self.max_samples - sum(s.shape[0] for s in self.sample_inputs)
        if budget > 0:
            self.sample_inputs.append(x[:budget].copy())

    def stacked_samples(self) -> np.ndarray:
        if not self.sample_inputs:
            raise ValueError("no calibration samples recorded")
        return np.concatenate(self.sample_inputs, axis=0)


@contextlib.contextmanager
def record_linear_inputs(
    model: Module,
) -> Iterator[dict[str, LayerCalibration]]:
    """Patch every Linear's forward to record inputs; restore on exit."""
    records: dict[str, LayerCalibration] = {}
    originals: list[tuple[Linear, object]] = []
    for name, _, _, module in named_linears(model):
        calibration = LayerCalibration(in_features=module.in_features)
        records[name] = calibration

        def recording_forward(
            x: Tensor, _inner=module, _cal=calibration
        ) -> Tensor:
            flat = x._compute().reshape(-1, _inner.in_features)
            _cal.update(flat.astype(np.float64))
            return Linear.forward(_inner, x)

        originals.append((module, module.forward))
        object.__setattr__(module, "forward", recording_forward)
    try:
        yield records
    finally:
        for module, original in originals:
            object.__setattr__(module, "forward", original)
