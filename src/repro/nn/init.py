"""Weight initializers (seeded, numpy-level)."""

from __future__ import annotations

import numpy as np


def normal(
    shape: tuple[int, ...], std: float, rng: np.random.Generator
) -> np.ndarray:
    return (rng.standard_normal(shape) * std).astype(np.float32)


def kaiming_uniform(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """He-uniform used for Linear weights (matches torch's default gain)."""
    bound = float(np.sqrt(1.0 / max(fan_in, 1)))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
