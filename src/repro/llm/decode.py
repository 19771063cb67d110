"""Incremental decoding: per-sequence K/V state and one ragged step.

:func:`decode_step` is what a serving step costs: every sequence feeds
only the tokens its :class:`SequenceCache` has not seen -- the whole
prompt on its first step, one token afterwards -- and all rows' tokens run
*flattened* through the embedding, the norms, every projection and the
MLPs in a single pass.  RoPE rotates each token at its own position, the
softmax(QK^T)V core alone is split by new-token count
(:meth:`repro.nn.MultiHeadAttention.step`), and the final norm and LM head
see each row's last position only.

The step is **atomic**: a layer writes new keys and values past the
cached length, where nothing reads them, and the length moves only after
the last layer and the LM head have succeeded.  A step that raises midway
-- a palette-path fault, a corrupt resident weight -- therefore leaves every cache
as it found it, and retrying it feeds the same tokens again.

Logits are *not* bit-equal to the full-recompute reference
(:func:`repro.llm.recompute.batched_last_logits`): a gemm's result depends
on how many rows it is given, and the flattened pass gives it a different
number than a per-bucket pass does.  The contract is the same greedy
tokens and logits within ``1e-4``; ``generate`` / ``generate_batch`` stay
on full recompute as the independent reference the tests compare against.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Transformer
from repro.nn.attention import AttentionRow, KVBlock
from repro.tensor import ops
from repro.tensor.autograd import no_grad
from repro.tensor.device import Device
from repro.tensor.tensor import Tensor


class SequenceCache:
    """One sequence's decode state: a :class:`KVBlock` per layer and the
    number of positions committed to all of them."""

    def __init__(self, model: Transformer) -> None:
        weight = model.embed.weight
        self.blocks: tuple[KVBlock, ...] = tuple(
            KVBlock(layer.attn.n_heads, layer.attn.head_dim, weight.dtype, weight.device)
            for layer in model.layers
        )
        self.length = 0

    @property
    def nbytes(self) -> int:
        """Device bytes held by this sequence's keys and values."""
        return sum(block.nbytes for block in self.blocks)

    def release(self) -> None:
        """Drop every block; the device bytes return once no step uses them."""
        self.blocks = ()
        self.length = 0


def decode_step(
    model: Transformer,
    ids: list[list[int]],
    caches: list[SequenceCache],
    device: Device | None = None,
) -> list[np.ndarray]:
    """Last-position logits of every sequence, feeding only uncached tokens.

    ``ids[i]`` is sequence ``i``'s whole token list and ``caches[i]`` its
    state; tokens ``ids[i][caches[i].length:]`` are fed and, once the step
    has succeeded, committed.  A sequence longer than ``model.max_seq_len``
    decodes over a sliding window: every position shifts each step, which
    invalidates cached keys, so its cache is dropped and the truncated
    window is fed whole, uncached, on this and every later step.
    """
    if len(ids) != len(caches):
        raise ValueError(f"got {len(caches)} caches for {len(ids)} sequences")
    if not ids:
        return []
    device = device or model.embed.weight.device
    fed: list[int] = []
    positions: list[int] = []
    rows: list[tuple[int, int, int, tuple[KVBlock, ...]]] = []
    commits: list[tuple[SequenceCache, int]] = []
    for tokens, cache in zip(ids, caches):
        if len(tokens) > model.max_seq_len:
            cache.release()
            tokens = tokens[-model.max_seq_len :]
            cached, blocks = 0, SequenceCache(model).blocks
        else:
            cached, blocks = cache.length, cache.blocks
            commits.append((cache, len(tokens)))
        if len(tokens) <= cached:
            raise ValueError(
                f"sequence of {len(tokens)} tokens has nothing to feed past "
                f"its {cached} cached"
            )
        rows.append((len(fed), len(tokens) - cached, cached, blocks))
        fed.extend(tokens[cached:])
        positions.extend(range(cached, len(tokens)))
    at = np.asarray(positions, dtype=np.int64)
    last = [start + count - 1 for start, count, _, _ in rows]
    with no_grad():
        x = model.embed(Tensor.from_numpy(np.asarray(fed, dtype=np.int64), device=device))
        for depth, layer in enumerate(model.layers):
            attention_rows = [
                AttentionRow(start, count, cached, blocks[depth])
                for start, count, cached, blocks in rows
            ]
            x = x + layer.attn.step(layer.attn_norm(x), at, attention_rows)
            x = layer.mlp_residual(x)
        final = ops.index_select(
            x, Tensor.from_numpy(np.asarray(last, dtype=np.int64), device=device)
        )
        logits = model.lm_head(model.final_norm(final))._compute()
    for cache, length in commits:
        cache.length = length
    return [np.ascontiguousarray(row) for row in logits]
