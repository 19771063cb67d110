"""GPTQ: Hessian-guided post-training quantization (Frantar et al., 2023).

Quantizes weight columns one at a time; the rounding error of each column is
propagated into the not-yet-quantized columns using the inverse Hessian of
the layer's inputs, so later columns compensate for earlier mistakes.  This
is the standard OBQ/GPTQ recursion with Cholesky-based inverse and dampening.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import _grid_minmax


def _quantize_column(
    col: np.ndarray, scales: np.ndarray, zeros: np.ndarray, bits: int, symmetric: bool
) -> np.ndarray:
    if symmetric:
        limit = 2 ** (bits - 1) - 1
        codes = np.clip(np.round(col / scales), -limit, limit)
        return codes * scales
    qmax = 2**bits - 1
    codes = np.clip(np.round(col / scales + zeros), 0, qmax)
    return (codes - zeros) * scales


def gptq_quantize_weight(
    weight: np.ndarray,
    hessian: np.ndarray,
    bits: int,
    group_size: int | None = 128,
    percdamp: float = 0.01,
    symmetric: bool = False,
) -> np.ndarray:
    """Quantize one (out, in) weight with input Hessian (in, in)."""
    w = np.asarray(weight, dtype=np.float64).copy()
    cols = w.shape[1]
    h =np.asarray(hessian, dtype=np.float64).copy()

    dead = np.diag(h) <= 0
    if dead.any():
        h[dead, dead] = 1.0
        w[:, dead] = 0.0

    damp = percdamp * float(np.mean(np.diag(h)))
    h[np.arange(cols), np.arange(cols)] += max(damp, 1e-10)

    # Inverse Hessian in upper-Cholesky form, as in the reference code.
    hinv = np.linalg.inv(h)
    hinv = np.linalg.cholesky(hinv).T  # upper triangular

    q = np.zeros_like(w)
    effective_group = group_size if group_size is not None else cols
    scales = zeros = None
    for col in range(cols):
        if col % effective_group == 0:
            # One (rows, 1) grid per row over the next column block.
            block = w[:, col : col + effective_group]
            scales, zeros = _grid_minmax(block, bits, symmetric)
        column = w[:, col : col + 1]
        quantized = _quantize_column(column, scales, zeros, bits, symmetric)
        q[:, col : col + 1] = quantized
        err = (column - quantized) / hinv[col, col]
        w[:, col + 1 :] -= np.outer(err, hinv[col, col + 1 :])
    return q.astype(np.float32)
