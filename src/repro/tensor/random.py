"""Seeded random generators.

All stochastic components in the library (init, data generation, dropout-free
by design) draw from explicit generators so experiments are reproducible.
"""

from __future__ import annotations

import numpy as np

_default_rng = np.random.default_rng(0)


def manual_seed(seed: int) -> None:
    """Re-seed the module-level generator."""
    global _default_rng
    _default_rng = np.random.default_rng(seed)


def default_rng(seed: int | None = None) -> np.random.Generator:
    """The library's generator factory -- the one sanctioned entry point.

    With ``seed=None`` returns the shared module-level generator (advanced
    by every draw; re-seed with :func:`manual_seed`).  With an explicit
    seed returns a *fresh* generator, bit-identical across calls -- the
    idiom modules use for deterministic default initialisation.  All other
    ``np.random.default_rng`` construction outside this module is flagged
    by repolint rule RL302.
    """
    if seed is None:
        return _default_rng
    return np.random.default_rng(seed)
