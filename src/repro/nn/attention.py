"""Multi-head causal self-attention (the Table 2 workload).

The paper's ablation (Table 2) measures "one attention layer from the LLaMA
7B decoder stack" under 3-bit DKM compression.  This module is that layer:
four Linear projections -- whose weights the DKM layer re-clusters on every
forward -- plus RoPE and the causal softmax(QK^T)V core, one op
(``ops.causal_attention``).

Inference additionally gets :meth:`MultiHeadAttention.step`, the K/V-cached
form of the same layer: it sees only the tokens a sequence has not fed yet
and attends over that sequence's :class:`KVBlock`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.rope import RotaryEmbedding
from repro.tensor import ops
from repro.tensor.device import Device
from repro.tensor.dtype import DType, float32, promote
from repro.tensor.ops.matmul import attention_weights
from repro.tensor.random import default_rng
from repro.tensor.tensor import Tensor, zeros


class KVBlock:
    """One sequence's cached keys and values for one attention layer.

    Two ``(capacity, heads, head_dim)`` tensors on the model's device, so
    the device tracker sees every cached byte.  Capacity grows in chunks of
    :attr:`GROWTH` positions as the sequence does -- a block sized for
    ``max_seq_len`` up front would charge a short request the longest
    one's memory.  The block does not know how many positions are valid:
    its owner keeps the committed length and hands it to :meth:`write`, so
    a write past that length stays invisible until the owner commits it.
    """

    GROWTH = 16

    def __init__(
        self, n_heads: int, head_dim: int, dtype: DType, device: Device
    ) -> None:
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.dtype = dtype
        self.device = device
        self.capacity = 0
        self.keys: Tensor | None = None
        self.values: Tensor | None = None

    @property
    def nbytes(self) -> int:
        """Device bytes the block holds right now."""
        if self.keys is None:
            return 0
        return self.keys.nbytes + self.values.nbytes

    def _grow(self, keep: int, total: int) -> None:
        capacity = -(-total // self.GROWTH) * self.GROWTH
        shape = (capacity, self.n_heads, self.head_dim)
        grown = []
        for old in (self.keys, self.values):
            new = zeros(*shape, dtype=self.dtype, device=self.device)
            if keep and old is not None:
                new._np()[:keep] = old._np()[:keep]
                new.storage.bump_version()
            grown.append(new)
        self.keys, self.values = grown
        self.capacity = capacity

    def write(self, at: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Store ``(n, heads, head_dim)`` keys/values at positions ``[at, at + n)``.

        Positions below ``at`` are kept (also across a growth); whatever
        sat at or above it is overwritten.
        """
        end = at + keys.shape[0]
        if end > self.capacity:
            self._grow(at, end)
        self.keys._np()[at:end] = self.dtype.project(keys)
        self.keys.storage.bump_version()
        self.values._np()[at:end] = self.dtype.project(values)
        self.values.storage.bump_version()

    def read(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the first ``length`` keys and values, ``(heads, length, head_dim)``."""
        return (
            self.keys._np()[:length].transpose(1, 0, 2),
            self.values._np()[:length].transpose(1, 0, 2),
        )


class AttentionRow(NamedTuple):
    """One sequence's share of a ragged :meth:`MultiHeadAttention.step`.

    Its ``count`` new tokens sit at ``[start, start + count)`` of the
    flattened input; ``cached`` positions are already in ``block``.
    """

    start: int
    count: int
    cached: int
    block: KVBlock


class MultiHeadAttention(Module):
    def __init__(
        self,
        dim: int,
        n_heads: int,
        max_seq_len: int = 512,
        dtype: DType | str = float32,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        rng = rng or default_rng(0)
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.q_proj = Linear(dim, dim, bias=False, dtype=dtype, rng=rng)
        self.k_proj = Linear(dim, dim, bias=False, dtype=dtype, rng=rng)
        self.v_proj = Linear(dim, dim, bias=False, dtype=dtype, rng=rng)
        self.o_proj = Linear(dim, dim, bias=False, dtype=dtype, rng=rng)
        self.rope = RotaryEmbedding(self.head_dim, max_seq_len)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.n_heads, self.head_dim).permute(0, 2, 1, 3)

    def forward(self, x: Tensor) -> Tensor:
        """Causal self-attention over ``x`` of shape (batch, seq, dim).

        The projections and RoPE feed one ``causal_attention`` op, which
        saves q, k and v and no ``B·heads·T²`` map.  Each buffer is dropped
        at its last read: whatever backward needs autograd has saved (on
        the host, under the eDKM pipeline), so a name kept past that point
        only holds device bytes.
        """
        q = self.rope.apply(self._split_heads(self.q_proj(x)))
        k = self.rope.apply(self._split_heads(self.k_proj(x)))
        v = self._split_heads(self.v_proj(x))
        context = ops.causal_attention(q, k, v)
        del q, k, v
        return self.o_proj(context)

    def step(
        self, x: Tensor, positions: np.ndarray, rows: list[AttentionRow]
    ) -> Tensor:
        """K/V-cached causal attention over the new tokens of several sequences.

        ``x`` is ``(tokens, dim)``: every row's uncached tokens, flattened;
        ``positions[i]`` is token ``i``'s position in its own sequence.
        The four projections run once over all tokens; each row's new keys
        and values are written to its block past the cached length, and
        only the softmax(QK^T)V core is split, into one group per new-token
        count.  A group's caches are copied into one zero-padded
        ``(rows, heads, longest, head_dim)`` block, and one mask hides every
        position past ``cached + i`` from a row's new token ``i``: that
        covers both the padding and, in a prefill, the future.  Inference
        only: nothing is recorded on the autograd tape.
        """
        heads = (x.shape[0], self.n_heads, self.head_dim)
        queries = self.q_proj(x)
        q = self.rope.apply_at(queries._compute().reshape(heads), positions)
        k = self.rope.apply_at(self.k_proj(x)._compute().reshape(heads), positions)
        v = self.v_proj(x)._compute().reshape(heads)
        groups: dict[int, list[AttentionRow]] = defaultdict(list)
        for row in rows:
            tokens = slice(row.start, row.start + row.count)
            row.block.write(row.cached, k[tokens], v[tokens])
            groups[row.count].append(row)
        context = np.empty(heads, dtype=q.dtype)
        for count, members in groups.items():
            cached = np.array([row.cached for row in members])
            longest = int(cached.max()) + count
            shape = (len(members), self.n_heads, longest, self.head_dim)
            keys = np.zeros(shape, dtype=members[0].block.dtype.np_storage)
            values = np.zeros_like(keys)
            for slot, row in enumerate(members):
                total = row.cached + count
                keys[slot, :, :total], values[slot, :, :total] = row.block.read(total)
            grouped = np.stack(
                [q[row.start : row.start + count] for row in members]
            ).transpose(0, 2, 1, 3)
            seen = cached[:, None] + np.arange(count)  # (rows, count)
            hidden = np.arange(longest) > seen[:, None, :, None]
            dtype = promote(queries.dtype, members[0].block.dtype)
            compute = dtype.np_compute
            weights = attention_weights(
                grouped.astype(compute, copy=False), keys.astype(compute, copy=False), hidden, dtype
            )
            mixed = (weights @ values).transpose(0, 2, 1, 3)
            for row, out in zip(members, mixed):
                context[row.start : row.start + count] = out
        merged = Tensor.adopt(  # context was allocated above, for this step only
            context.reshape(x.shape[0], self.dim), x.dtype, x.device
        )
        return self.o_proj(merged)
