"""Neural-network layer library (LLaMA-architecture building blocks)."""

from repro.nn.attention import AttentionRow, KVBlock, MultiHeadAttention
from repro.nn.linear import Embedding, Linear, named_linears
from repro.nn.loss import IGNORE_INDEX, cross_entropy, token_log_likelihoods
from repro.nn.mlp import SwiGLUMLP
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.norm import RMSNorm
from repro.nn.rope import RotaryEmbedding
from repro.nn.transformer import DecoderLayer, Transformer

__all__ = [
    "AttentionRow",
    "KVBlock",
    "MultiHeadAttention",
    "Embedding",
    "Linear",
    "named_linears",
    "IGNORE_INDEX",
    "cross_entropy",
    "token_log_likelihoods",
    "SwiGLUMLP",
    "Module",
    "ModuleList",
    "Parameter",
    "RMSNorm",
    "RotaryEmbedding",
    "DecoderLayer",
    "Transformer",
]
