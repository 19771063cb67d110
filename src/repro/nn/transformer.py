"""Decoder-only transformer in the LLaMA architecture."""

from __future__ import annotations

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.nn.linear import Embedding, Linear
from repro.nn.mlp import SwiGLUMLP
from repro.nn.module import Module, ModuleList
from repro.nn.norm import RMSNorm
from repro.tensor.dtype import DType, float32
from repro.tensor.random import default_rng
from repro.tensor.tensor import Tensor


class DecoderLayer(Module):
    """Pre-norm residual block: attention then SwiGLU MLP.

    The layer holds parameters but runs no ``forward`` of its own: the
    caller's frame (:meth:`Transformer.forward`, the decode step) holds the
    residual stream and rebinds it after each sublayer, so no layer input
    outlives the sublayer that last reads it.
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        hidden_dim: int,
        max_seq_len: int = 512,
        dtype: DType | str = float32,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or default_rng(0)
        self.attn_norm = RMSNorm(dim, dtype=dtype)
        self.attn = MultiHeadAttention(
            dim, n_heads, max_seq_len=max_seq_len, dtype=dtype, rng=rng
        )
        self.mlp_norm = RMSNorm(dim, dtype=dtype)
        self.mlp = SwiGLUMLP(dim, hidden_dim, dtype=dtype, rng=rng)

    def mlp_residual(self, x: Tensor) -> Tensor:
        """The stream after the MLP sublayer: ``x + mlp(mlp_norm(x))``."""
        return x + self.mlp(x, self.mlp_norm)


class Transformer(Module):
    """Embedding, N decoder layers, final norm, untied LM head."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        n_layers: int,
        n_heads: int,
        hidden_dim: int,
        max_seq_len: int = 512,
        dtype: DType | str = float32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = default_rng(seed)
        self.vocab_size = vocab_size
        self.dim = dim
        self.max_seq_len = max_seq_len
        self.embed = Embedding(vocab_size, dim, dtype=dtype, rng=rng)
        self.layers = ModuleList(
            [
                DecoderLayer(
                    dim,
                    n_heads,
                    hidden_dim,
                    max_seq_len=max_seq_len,
                    dtype=dtype,
                    rng=rng,
                )
                for _ in range(n_layers)
            ]
        )
        self.final_norm = RMSNorm(dim, dtype=dtype)
        self.lm_head = Linear(dim, vocab_size, bias=False, dtype=dtype, rng=rng)

    def forward(self, tokens: Tensor) -> Tensor:
        """Logits of shape (batch, seq, vocab) for integer ``tokens``."""
        x = self.embed(tokens)
        for layer in self.layers:
            x = x + layer.attn(layer.attn_norm(x))
            x = layer.mlp_residual(x)
        return self.lm_head(self.final_norm(x))
