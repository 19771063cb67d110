"""Autoregressive generation: single-prompt, batched, and bucketed logits.

Batched decoding here is **length-bucketed**, not padded: active rows
are grouped by current window length and each group runs one forward.
Rows of equal length stack into one ``(B, L)`` call whose per-row logits
equal ``B`` separate ``(1, L)`` calls to float32 rounding (every op is
row-wise, but a ``Linear`` is one ``(B*L, K)`` gemm and BLAS blocks by
row count; measured max |delta| 3.6e-7, argmax equal), so
``generate_batch`` over N prompts reproduces the *tokens* of N
``generate`` calls -- the property the serving layer's identity gates
rely on.  Right-padding was rejected because numpy's pairwise summation
associates differently at different reduction lengths, so a padded row's
softmax/norm denominators would depend on its batch-mates' lengths.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.llm.tokenizer import WordTokenizer
from repro.nn import Transformer
from repro.tensor.autograd import no_grad
from repro.tensor.device import Device
from repro.tensor.random import default_rng
from repro.tensor.tensor import Tensor


def batched_last_logits(
    model: Transformer,
    windows: list[list[int]],
    device: Device | None = None,
) -> list[np.ndarray]:
    """Last-position logits for each token window, bucketed by length.

    ``windows[i]`` is a token window of length ``<= model.max_seq_len``
    (callers truncate).  Windows of equal length share one batched
    forward; the result list lines up with ``windows`` and each entry
    equals a single-prompt forward of that window to float32 rounding
    (same argmax).
    """
    if not windows:
        return []
    device = device or model.embed.weight.device
    buckets: dict[int, list[int]] = defaultdict(list)
    for i, window in enumerate(windows):
        if not window:
            raise ValueError("empty token window")
        if len(window) > model.max_seq_len:
            raise ValueError(
                f"window of {len(window)} tokens exceeds max_seq_len "
                f"{model.max_seq_len}"
            )
        buckets[len(window)].append(i)
    out: list[np.ndarray | None] = [None] * len(windows)
    with no_grad():
        for length, rows in sorted(buckets.items()):
            tokens = Tensor.from_numpy(
                np.asarray([windows[i] for i in rows], dtype=np.int64),
                device=device,
            )
            logits = model(tokens)._compute()
            for pos, i in enumerate(rows):
                out[i] = np.ascontiguousarray(logits[pos, length - 1])
    return out  # type: ignore[return-value]


def _pick_next(
    last: np.ndarray, temperature: float, rng: np.random.Generator
) -> int:
    """Greedy argmax at temperature 0, else temperature sampling."""
    if temperature > 0:
        scaled = last / temperature
        scaled -= scaled.max()
        probs = np.exp(scaled) / np.exp(scaled).sum()
        return int(rng.choice(len(probs), p=probs))
    return int(np.argmax(last))


def generate_batch(
    model: Transformer,
    tokenizer: WordTokenizer,
    prompts: list[str],
    max_new_tokens: int = 8,
    temperature: float = 0.0,
    device: Device | None = None,
    rngs: list[np.random.Generator] | None = None,
) -> list[str]:
    """Continue every prompt; returns only the newly generated texts.

    Decoding is continuous at the function scale: each step forwards only
    the still-active rows (EOS or token budget retires a row without
    stalling the others), grouped into length buckets.  With the default
    per-row rngs the output equals calling :func:`generate` once per
    prompt.
    """
    device = device or model.embed.weight.device
    if rngs is None:
        rngs = [default_rng(0) for _ in prompts]
    if len(rngs) != len(prompts):
        raise ValueError(
            f"got {len(rngs)} rngs for {len(prompts)} prompts"
        )
    ids = [tokenizer.encode(prompt, bos=True) for prompt in prompts]
    generated: list[list[int]] = [[] for _ in prompts]
    active = list(range(len(prompts)))
    for _ in range(max_new_tokens):
        if not active:
            break
        windows = [ids[i][-model.max_seq_len :] for i in active]
        lasts = batched_last_logits(model, windows, device=device)
        still_active: list[int] = []
        for i, last in zip(active, lasts):
            next_id = _pick_next(last, temperature, rngs[i])
            if next_id == tokenizer.eos_id:
                continue
            ids[i].append(next_id)
            generated[i].append(next_id)
            still_active.append(i)
        active = still_active
    return [tokenizer.decode(tokens) for tokens in generated]


def generate(
    model: Transformer,
    tokenizer: WordTokenizer,
    prompt: str,
    max_new_tokens: int = 8,
    temperature: float = 0.0,
    device: Device | None = None,
    rng: np.random.Generator | None = None,
) -> str:
    """Continue ``prompt``; returns only the newly generated text.

    ``temperature == 0`` is greedy decoding; generation stops early at
    EOS.  Implemented as a batch of one -- :func:`generate_batch` is the
    engine.
    """
    return generate_batch(
        model,
        tokenizer,
        [prompt],
        max_new_tokens=max_new_tokens,
        temperature=temperature,
        device=device,
        rngs=[rng or default_rng(0)],
    )[0]
