"""LLM substrate: tokenizer, model presets, generation, fine-tuning."""

from repro.llm.config import LLAMA_7B, MICRO, SMALL, TINY, ModelSpec, build_model
from repro.llm.decode import SequenceCache, decode_step
from repro.llm.finetune import FinetuneConfig, TrainResult, train_causal_lm
from repro.llm.generate import batched_last_logits, generate, generate_batch
from repro.llm.tokenizer import WordTokenizer

__all__ = [
    "LLAMA_7B",
    "MICRO",
    "SMALL",
    "TINY",
    "ModelSpec",
    "build_model",
    "FinetuneConfig",
    "TrainResult",
    "train_causal_lm",
    "SequenceCache",
    "decode_step",
    "batched_last_logits",
    "generate",
    "generate_batch",
    "WordTokenizer",
]
