"""Rotary position embeddings (half-split / GPT-NeoX layout)."""

from __future__ import annotations

import numpy as np

from repro.tensor import ops
from repro.tensor.ops.rotary import rope_tables, rotate_half
from repro.tensor.tensor import Tensor


class RotaryEmbedding:
    """Precomputed cos/sin tables applied to query and key heads.

    The tables are plain numpy constants
    (:func:`repro.tensor.ops.rotary.rope_tables`); :meth:`apply` and
    :meth:`apply_at` hand rows of them to the one rotation kernel,
    :func:`repro.tensor.ops.rotary.rotate_half`.
    """

    def __init__(self, head_dim: int, max_seq_len: int, base: float = 10000.0) -> None:
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
        self.head_dim = head_dim
        self.max_seq_len = max_seq_len
        self._cos, self._sin = rope_tables(head_dim, max_seq_len, base)

    def apply(self, x: Tensor) -> Tensor:
        """Rotate ``x`` of shape (batch, heads, seq, head_dim)."""
        if x.ndim != 4 or x.shape[-1] != self.head_dim:
            raise ValueError(f"expected (B, H, T, {self.head_dim}), got {x.shape}")
        seq_len = x.shape[2]
        if seq_len > self.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds RoPE table ({self.max_seq_len})"
            )
        # (T, head_dim) rows broadcast over batch and heads.
        return ops.rope(x, self._cos[:seq_len], self._sin[:seq_len])

    def apply_at(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Rotate ``x`` of shape (tokens, heads, head_dim), token ``i`` at
        ``positions[i]``.

        The inference counterpart of :meth:`apply` for ragged decode
        steps, where each token carries its own position; plain numpy,
        never on the autograd tape, the same kernel on gathered table rows.
        """
        if x.ndim != 3 or x.shape[-1] != self.head_dim:
            raise ValueError(f"expected (N, H, {self.head_dim}), got {x.shape}")
        positions = np.asarray(positions)
        if positions.shape != x.shape[:1]:
            raise ValueError(
                f"expected one position per token ({x.shape[0]}), got {positions.shape}"
            )
        if positions.size and not 0 <= positions.min() <= positions.max() < self.max_seq_len:
            raise ValueError(
                f"positions {int(positions.min())}..{int(positions.max())} exceed "
                f"RoPE table ({self.max_seq_len})"
            )
        cos = self._cos[positions][:, None, :]
        sin = self._sin[positions][:, None, :]
        return rotate_half(x, cos, sin)
