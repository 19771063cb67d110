"""Batching utilities: padded causal-LM batches with instruction masking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.alpaca import InstructionExample
from repro.llm.tokenizer import WordTokenizer
from repro.nn.loss import IGNORE_INDEX
from repro.tensor.device import Device
from repro.tensor.tensor import Tensor


@dataclass
class Batch:
    """Input tokens and next-token targets, both (batch, seq)."""

    tokens: Tensor
    targets: Tensor


def _pad_and_shift(
    sequences: list[list[int]],
    loss_masks: list[list[bool]],
    pad_id: int,
    device: Device,
    max_len: int,
) -> Batch:
    """Right-pad, then shift: target[t] = token[t+1] (or IGNORE)."""
    width = min(max(len(s) for s in sequences), max_len)
    n = len(sequences)
    tokens = np.full((n, width), pad_id, dtype=np.int64)
    targets = np.full((n, width), IGNORE_INDEX, dtype=np.int64)
    for i, (seq, mask) in enumerate(zip(sequences, loss_masks)):
        seq = seq[:width]
        mask = mask[:width]
        tokens[i, : len(seq)] = seq
        for t in range(len(seq) - 1):
            if mask[t + 1]:
                targets[i, t] = seq[t + 1]
    return Batch(
        tokens=Tensor.from_numpy(tokens, device=device),
        targets=Tensor.from_numpy(targets, device=device),
    )


def corpus_batches(
    sentences: list[str],
    tokenizer: WordTokenizer,
    batch_size: int,
    device: Device,
    max_len: int = 64,
    seed: int = 0,
    epochs: int = 1,
) -> Iterator[Batch]:
    """Shuffled causal-LM batches over plain sentences (all tokens scored)."""
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(sentences))
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            seqs = [
                tokenizer.encode(sentences[i], bos=True, eos=True) for i in chunk
            ]
            masks = [[True] * len(s) for s in seqs]
            yield _pad_and_shift(seqs, masks, tokenizer.pad_id, device, max_len)


def alpaca_batches(
    examples: list[InstructionExample],
    tokenizer: WordTokenizer,
    batch_size: int,
    device: Device,
    max_len: int = 64,
    seed: int = 0,
    epochs: int = 1,
) -> Iterator[Batch]:
    """Instruction batches: loss only on the response segment.

    The question tokens (everything up to and including the ``answer :``
    marker) are masked with IGNORE_INDEX, matching Alpaca-style fine-tuning.
    """
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            seqs, masks = [], []
            for i in chunk:
                example = examples[i]
                prefix = f"question : {example.question} answer :"
                prefix_ids = tokenizer.encode(prefix, bos=True)
                full_ids = tokenizer.encode(example.text, bos=True, eos=True)
                mask = [False] * len(prefix_ids) + [True] * (
                    len(full_ids) - len(prefix_ids)
                )
                seqs.append(full_ids)
                masks.append(mask)
            yield _pad_and_shift(seqs, masks, tokenizer.pad_id, device, max_len)
