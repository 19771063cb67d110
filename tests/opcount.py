"""Count autograd dispatches and saved tensors by op name.

``count_ops()`` wraps ``Function.apply`` and ``Context.save_for_backward``
for the length of a ``with`` block, so a test can pin how many ops a
forward records and how many tensors each one saves.  It also counts the
copies ``Storage.from_values`` makes to own a caller's buffer (and their
bytes), the numpy views ``Tensor._np`` builds, the blocks (and elements)
``tensor/pairwise.py`` moves to a transposed copy, the reductions it runs
down an axis 0 in place, and the products with a contracted dimension of
1 (outer products): those ``MatMul`` computes, and those passed to
``np.matmul``.  That last counter swaps the ``np.matmul`` attribute for the
block, so it sees calls spelled ``np.matmul(...)`` only: not the ``@``
operator, nor a module that kept its own reference.  Run as a script it
prints the per-op table of one benchmark-shaped ``finetune_mus`` training step
(``docs/edkm-pipeline.md`` carries a copy), with ``--dense`` of one
``finetune_offload``-configured step (dense DKM, naive offload), or with
``--eval`` of one ``evaluate_suites`` pass over
``standard_suites(n_items=2)``::

    PYTHONPATH=src python tests/opcount.py [--dense | --eval]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

import repro.tensor as rt
from repro.tensor import pairwise
from repro.tensor.autograd import Context, Function
from repro.tensor.storage import Storage
from repro.tensor.tensor import Tensor

# The module; the attribute ``repro.tensor.ops.matmul`` is the op function.
matmul = importlib.import_module("repro.tensor.ops.matmul")


@dataclass
class OpCounts:
    """``Function.apply`` calls and tensors saved for backward, by op name,
    plus the block's storage copies, their bytes, ``_np`` view builds,
    pairwise moves and in-place axis-0 reductions, and outer products."""

    dispatches: Counter = field(default_factory=Counter)
    saved: Counter = field(default_factory=Counter)
    copies: int = 0
    copied_bytes: int = 0
    view_builds: int = 0
    moved_blocks: int = 0
    moved_elements: int = 0
    down_rows: int = 0
    outer_products: int = 0
    outer_gemms: int = 0

    def table(self) -> str:
        """A markdown table, busiest op first, totals last."""
        lines = ["| op | dispatches | saved tensors |", "|---|---:|---:|"]
        for name, n in sorted(self.dispatches.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"| `{name}` | {n} | {self.saved[name]} |")
        lines.append(
            f"| **total** | **{sum(self.dispatches.values())}** "
            f"| **{sum(self.saved.values())}** |"
        )
        lines += [
            "",
            "| counter | count |",
            "|---|---:|",
            f"| storage copies (`Storage.from_values`) | {self.copies} |",
            f"| copied bytes | {self.copied_bytes} |",
            f"| `_np` view builds | {self.view_builds} |",
            f"| pairwise blocks moved to a transposed copy | {self.moved_blocks} |",
            f"| elements in those blocks | {self.moved_elements} |",
            f"| pairwise reductions down an axis 0 in place | {self.down_rows} |",
            f"| `MatMul` outer products (broadcast multiply) | {self.outer_products} |",
            f"| outer products passed to `np.matmul` | {self.outer_gemms} |",
        ]
        return "\n".join(lines)


@contextlib.contextmanager
def count_ops() -> Iterator[OpCounts]:
    """Count every op applied (and what it saves) inside the block."""
    counts = OpCounts()
    running: list[str] = []  # innermost op last: an op's forward may apply others
    original_apply = Function.__dict__["apply"]
    original_save = Context.save_for_backward
    original_from_values = Storage.__dict__["from_values"]
    original_new_view = Tensor._new_view
    original_row_blocks = pairwise._row_blocks
    original_down_rows = pairwise._down_rows
    original_product = matmul._product
    original_matmul = np.matmul

    def apply(cls, *args, **kwargs):
        name = cls.op_name or cls.__name__
        counts.dispatches[name] += 1
        running.append(name)
        try:
            return original_apply.__func__(cls, *args, **kwargs)
        finally:
            running.pop()

    def save_for_backward(ctx, *tensors):
        counts.saved[running[-1]] += len(tensors)
        original_save(ctx, *tensors)

    def from_values(cls, values, dtype, device):
        storage = original_from_values.__func__(cls, values, dtype, device)
        # The condition under which from_values copies to own its buffer.
        if np.may_share_memory(dtype.project(values), values):
            counts.copies += 1
            counts.copied_bytes += storage.data.nbytes
        return storage

    def new_view(tensor):
        counts.view_builds += 1
        return original_new_view(tensor)

    def row_blocks(rows, n):
        blocks = original_row_blocks(rows, n)
        counts.moved_blocks += len(blocks)
        counts.moved_elements += rows * n
        return blocks

    def down_rows(x, axis):
        runs = original_down_rows(x, axis)
        counts.down_rows += runs
        return runs

    def product(x, y):
        counts.outer_products += x.shape[-1] == 1
        return original_product(x, y)

    def np_matmul(x, y, *args, **kwargs):
        counts.outer_gemms += np.shape(x)[-1] == 1
        return original_matmul(x, y, *args, **kwargs)

    Function.apply = classmethod(apply)
    Context.save_for_backward = save_for_backward
    Storage.from_values = classmethod(from_values)
    Tensor._new_view = new_view
    pairwise._row_blocks = row_blocks
    pairwise._down_rows = down_rows
    matmul._product = product
    np.matmul = np_matmul
    try:
        yield counts
    finally:
        Function.apply = original_apply
        Context.save_for_backward = original_save
        Storage.from_values = original_from_values
        Tensor._new_view = original_new_view
        pairwise._row_blocks = original_row_blocks
        pairwise._down_rows = original_down_rows
        matmul._product = original_product
        np.matmul = original_matmul


def bench_shaped_model(vocab_size: int = 64):
    """The e2e benchmark's architecture: 15 Linears over 2 decoder layers."""
    from repro import nn

    return nn.Transformer(
        vocab_size=vocab_size, dim=128, n_layers=2, n_heads=8, hidden_dim=256, max_seq_len=64
    ).to("gpu")


def training_step_counts(dense: bool = False) -> OpCounts:
    """One ``finetune_mus``-configured step: 3-bit eDKM with M + U + S over 8
    learners; with ``dense``, ``finetune_offload``'s: dense DKM, naive offload."""
    from repro import nn
    from repro.core import DKMConfig, EDKMConfig, ModelCompressor, SavedTensorPipeline
    from repro.distributed import LearnerGroup

    model = bench_shaped_model()
    if dense:
        config = EDKMConfig(marshal=False, uniquify=False, shard=False)
    else:
        config = EDKMConfig(group=LearnerGroup(8))
    ModelCompressor(DKMConfig(bits=3, iters=4), edkm_config=config).compress(model)
    rng = np.random.default_rng(0)
    tokens, targets = (
        rt.tensor(rng.integers(0, model.vocab_size, (16, 48)), device="gpu") for _ in range(2)
    )
    model.train()
    with count_ops() as counts, SavedTensorPipeline(config).step():
        nn.cross_entropy(model(tokens), targets).backward()
    return counts


def eval_pass_counts(seed: int = 0) -> OpCounts:
    """One warm ``evaluate_suites`` pass of ``deploy_serve_eval``'s scoring phase.

    The bench-shaped model at the tokenizer's vocabulary, 3-bit clustered
    and preclustered, scored over ``standard_suites(n_items=2)``: 12
    multiple-choice and 8 cloze items.  A first, uncounted pass builds each
    layer's eval snapshot, as the benchmark's warm passes do.
    """
    import repro
    from repro.data import FactWorld, standard_suites
    from repro.data.corpus import corpus_vocabulary
    from repro.evalsuite import evaluate_suites
    from repro.llm import WordTokenizer

    world = FactWorld(seed=seed)
    tokenizer = WordTokenizer(corpus_vocabulary(world))
    model = bench_shaped_model(tokenizer.vocab_size)
    repro.compress(model, bits=3).precluster()
    suites = standard_suites(world, n_items=2)
    evaluate_suites(model, tokenizer, suites, rt.GPU)
    with count_ops() as counts:
        evaluate_suites(model, tokenizer, suites, rt.GPU)
    return counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--dense", action="store_true", help="count one finetune_offload-configured training step"
    )
    mode.add_argument(
        "--eval", action="store_true", help="count one evaluate_suites pass, not a training step"
    )
    args = parser.parse_args()
    counts = eval_pass_counts() if args.eval else training_step_counts(dense=args.dense)
    print(counts.table())
