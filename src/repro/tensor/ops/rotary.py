"""Rotary position embedding (half-split / GPT-NeoX layout) as one op.

``rotate_half`` is the whole arithmetic, in plain numpy: the training path
(:class:`Rope`, on the autograd tape) and the K/V-cached serving path
(``RotaryEmbedding.apply_at``, never on it) both call it, so the two agree
bit for bit by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import make_result


def rope_tables(head_dim: int, max_seq_len: int, base: float) -> tuple[np.ndarray, np.ndarray]:
    """``(cos ‖ cos, sin ‖ −sin)`` for positions ``0 .. max_seq_len − 1``.

    Two ``(max_seq_len, head_dim)`` float32 arrays in the full-width layout
    :func:`rotate_half` takes; the angles are computed in float64.
    """
    half = head_dim // 2
    inv_freq = 1.0 / (base ** (np.arange(half, dtype=np.float64) / half))
    angles = np.outer(np.arange(max_seq_len, dtype=np.float64), inv_freq)  # (T, half)
    cos = np.cos(angles).astype(np.float32)
    sin = np.sin(angles).astype(np.float32)
    return np.concatenate([cos, cos], axis=1), np.concatenate([sin, -sin], axis=1)


def rotate_half(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """``x1·cos − x2·sin ‖ x1·sin + x2·cos`` over the halves of the last axis.

    The tables are full width -- ``cos ‖ cos`` and ``sin ‖ −sin``, rows of
    :func:`rope_tables` -- and broadcast against ``x``, so the four products are two whole-row
    multiplies and the subtract / add is one add of the second product with
    its halves swapped: ``x2·(−sin)`` is ``−(x2·sin)`` exactly and
    ``a + (−b)`` is ``a − b``, so every element is rounded exactly as the
    half-by-half formula rounds it.  Rotating by the negated angles is the
    same call with ``−sin``.
    """
    half = x.shape[-1] // 2
    x = np.ascontiguousarray(x)
    out = x * cos
    pairs = out.reshape(*x.shape[:-1], 2, half)
    pairs += (x * sin).reshape(pairs.shape)[..., ::-1, :]
    return out


class Rope(Function):
    """Rotate ``a`` by the angles whose cosines and sines are given.

    ``cos`` / ``sin`` are constant numpy tables in :func:`rotate_half`'s
    full-width layout, not tensors: nothing is saved for backward, which is
    the rotation by the negated angles applied to the incoming gradient.
    The result has ``a``'s dtype; a 16-bit activation is rotated in its
    ``np_compute`` precision and projected once on the way out, as
    ``MatMul`` and ``Softmax`` do.
    """

    op_name = "rope"

    @staticmethod
    def forward(ctx: Context, a: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
        if cos.shape != sin.shape or a.shape[-1] != cos.shape[-1] or a.shape[-1] % 2:
            raise ValueError(
                f"rope tables {cos.shape} / {sin.shape} do not span the (even) "
                f"last axis of {a.shape}"
            )
        ctx.cos, ctx.sin = cos, sin
        return make_result(rotate_half(a._compute(), cos, sin), a.dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        return (rotate_half(grad, ctx.cos, -ctx.sin),)
