"""Model scale presets.

``tiny``/``small`` run the end-to-end experiments on a single CPU;
``LLAMA_7B`` records the true LLaMA-7B dimensions and exists purely for the
analytic size/memory arithmetic that reproduces the paper's GB-scale
numbers (12.6 GB fp16, 224 GB attention map, 2.5 GB at 3 bits).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """Architecture hyper-parameters of a LLaMA-style decoder."""

    name: str
    vocab_size: int
    dim: int
    n_layers: int
    n_heads: int
    hidden_dim: int
    max_seq_len: int

    def attention_params_per_layer(self) -> int:
        return 4 * self.dim * self.dim

    def mlp_params_per_layer(self) -> int:
        return 3 * self.dim * self.hidden_dim

    def norm_params(self) -> int:
        return (2 * self.n_layers + 1) * self.dim

    def embedding_params(self) -> int:
        return self.vocab_size * self.dim

    def head_params(self) -> int:
        return self.vocab_size * self.dim

    def body_params(self) -> int:
        """Linear weights clustered/quantized by compression schemes."""
        return self.n_layers * (
            self.attention_params_per_layer() + self.mlp_params_per_layer()
        ) + self.head_params()

    def total_params(self) -> int:
        return self.body_params() + self.embedding_params() + self.norm_params()


MICRO = ModelSpec(
    name="micro",
    vocab_size=256,
    dim=32,
    n_layers=2,
    n_heads=4,
    hidden_dim=64,
    max_seq_len=64,
)

TINY = ModelSpec(
    name="tiny",
    vocab_size=512,
    dim=64,
    n_layers=2,
    n_heads=4,
    hidden_dim=128,
    max_seq_len=64,
)

SMALL = ModelSpec(
    name="small",
    vocab_size=512,
    dim=128,
    n_layers=4,
    n_heads=8,
    hidden_dim=256,
    max_seq_len=128,
)

LLAMA_7B = ModelSpec(
    name="llama-7b",
    vocab_size=32000,
    dim=4096,
    n_layers=32,
    n_heads=32,
    hidden_dim=11008,
    max_seq_len=2048,
)


def build_model(spec: ModelSpec, vocab_size: int | None = None, seed: int = 0):
    """Instantiate a :class:`repro.nn.Transformer` for ``spec``."""
    from repro.nn import Transformer

    return Transformer(
        vocab_size=vocab_size or spec.vocab_size,
        dim=spec.dim,
        n_layers=spec.n_layers,
        n_heads=spec.n_heads,
        hidden_dim=spec.hidden_dim,
        max_seq_len=spec.max_seq_len,
        seed=seed,
    )
