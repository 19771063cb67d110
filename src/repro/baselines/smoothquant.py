"""SmoothQuant-style difficulty migration (Xiao et al., 2023).

Balances quantization difficulty between activations and weights with the
per-channel smoothing factor ``s_j = max|X_j|^alpha / max|W_.j|^(1-alpha)``;
weights are scaled by ``s`` (and quantized), activations conceptually by
``1/s``.  The paper cites SmoothQuant as a comparison point; we implement
the weight-side projection so it slots into the same Table 3 harness.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.calibration import LayerCalibration


def smoothquant_scales(
    weight: np.ndarray, calibration: LayerCalibration, alpha: float = 0.5
) -> np.ndarray:
    """Per-input-channel smoothing factors."""
    x = calibration.stacked_samples()
    act_max = np.maximum(np.abs(x).max(axis=0), 1e-8)
    w_max = np.maximum(np.abs(np.asarray(weight)).max(axis=0), 1e-8)
    scales = act_max**alpha / w_max ** (1.0 - alpha)
    return np.maximum(scales.astype(np.float32), 1e-8)
