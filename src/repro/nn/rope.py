"""Rotary position embeddings (half-split / GPT-NeoX layout)."""

from __future__ import annotations

import numpy as np

from repro.tensor import ops
from repro.tensor.device import Device
from repro.tensor.tensor import Tensor


class RotaryEmbedding:
    """Precomputed cos/sin tables applied to query and key heads.

    Tables are plain (non-trainable) tensors created per device on demand;
    they participate in the forward graph only as constants.
    """

    def __init__(self, head_dim: int, max_seq_len: int, base: float = 10000.0) -> None:
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
        self.head_dim = head_dim
        self.max_seq_len = max_seq_len
        half = head_dim // 2
        inv_freq = 1.0 / (base ** (np.arange(half, dtype=np.float64) / half))
        positions = np.arange(max_seq_len, dtype=np.float64)
        angles = np.outer(positions, inv_freq)  # (T, half)
        self._cos = np.cos(angles).astype(np.float32)
        self._sin = np.sin(angles).astype(np.float32)
        self._cache: dict[str, tuple[Tensor, Tensor]] = {}

    def tables(self, seq_len: int, device: Device) -> tuple[Tensor, Tensor]:
        if seq_len > self.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds RoPE table ({self.max_seq_len})"
            )
        key = f"{device.name}:{seq_len}"
        if key not in self._cache:
            cos = Tensor.from_numpy(self._cos[:seq_len], device=device)
            sin = Tensor.from_numpy(self._sin[:seq_len], device=device)
            self._cache[key] = (cos, sin)
        return self._cache[key]

    def apply(self, x: Tensor) -> Tensor:
        """Rotate ``x`` of shape (batch, heads, seq, head_dim)."""
        if x.ndim != 4 or x.shape[-1] != self.head_dim:
            raise ValueError(f"expected (B, H, T, {self.head_dim}), got {x.shape}")
        seq_len = x.shape[2]
        cos, sin = self.tables(seq_len, x.device)
        half = self.head_dim // 2
        x1 = x[:, :, :, :half]
        x2 = x[:, :, :, half:]
        # cos/sin broadcast over batch and heads: (T, half) -> (1, 1, T, half)
        cos_b = cos.unsqueeze(0).unsqueeze(0)
        sin_b = sin.unsqueeze(0).unsqueeze(0)
        rotated_first = x1 * cos_b - x2 * sin_b
        rotated_second = x1 * sin_b + x2 * cos_b
        return ops.cat([rotated_first, rotated_second], dim=3)

    def apply_at(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Rotate ``x`` of shape (tokens, heads, head_dim), token ``i`` at
        ``positions[i]``.

        The inference counterpart of :meth:`apply` for ragged decode
        steps, where each token carries its own position; plain numpy,
        never on the autograd tape, same arithmetic per element.
        """
        if x.ndim != 3 or x.shape[-1] != self.head_dim:
            raise ValueError(f"expected (N, H, {self.head_dim}), got {x.shape}")
        half = self.head_dim // 2
        cos = self._cos[positions][:, None, :]
        sin = self._sin[positions][:, None, :]
        x1, x2 = x[..., :half], x[..., half:]
        return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
