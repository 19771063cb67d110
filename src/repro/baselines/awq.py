"""AWQ: activation-aware weight quantization (Lin et al., 2023).

Salient weight channels -- those multiplying large activations -- are
protected by scaling them up before quantization and folding the inverse
scale into the layer's input side.  The per-channel scale is
``s_j = act_mean_j ** alpha`` with ``alpha`` grid-searched per layer to
minimize the reconstruction error of layer outputs on calibration data.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.calibration import LayerCalibration
from repro.baselines.common import fake_quantize


def awq_scale_search(
    weight: np.ndarray,
    calibration: LayerCalibration,
    bits: int,
    group_size: int | None,
    alphas: tuple[float, ...] = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
) -> tuple[np.ndarray, float, float]:
    """Return (best per-channel scales, best alpha, best output error)."""
    x = calibration.stacked_samples().astype(np.float32)
    w = np.asarray(weight, dtype=np.float32)
    reference = x @ w.T

    act = np.maximum(calibration.abs_mean.astype(np.float32), 1e-8)
    best = (np.ones(w.shape[1], dtype=np.float32), 0.0, np.inf)
    for alpha in alphas:
        scales = act**alpha
        scales = scales / np.sqrt(scales.max() * scales.min())  # normalize range
        scales = np.maximum(scales, 1e-8)
        scaled = w * scales[None, :]
        quantized = fake_quantize(scaled, bits, symmetric=True, group_size=group_size)
        restored = quantized / scales[None, :]
        err = float(np.mean((x @ restored.T - reference) ** 2))
        if err < best[2]:
            best = (scales, alpha, err)
    return best
