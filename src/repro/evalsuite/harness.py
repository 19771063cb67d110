"""LM-eval-harness-style scoring.

Multiple choice: each option is appended to the context; the option with
the highest *length-normalized* sum of token log-likelihoods wins (the rule
lm-eval uses for PIQA/HellaSwag/ARC/MMLU).  Cloze (TriviaQA): greedy
generation, exact string match.

An item's options are grouped by every token but their last, and each
group runs one batch-1 forward of ``context + option``, for the group's
first member; every member reads its own score from the rows the group
shares.  Options of one token form one group, so an item of the standard
suites costs one forward whatever its number of options.  Each score is
bit-identical to a forward of that option alone:

- members of a group share a prefix, so their input length ``T`` is equal;
- a score reads only rows before ``T - 1``, and no such row depends on
  the last token: the embedding, RoPE, RMSNorm, the MLP, the LM head and
  ``log_softmax`` all work row by row; the fused causal attention op
  (``ops.causal_attention``) fills every masked score with ``-1e9`` (with
  float16's lowest finite value at float16) before its softmax, so row
  ``i``'s weight on the last position is exactly 0;
  and a gemm's row ``i`` does not depend on the values in other rows when
  the row count is the same.

Rows are never stacked across options or items: a ``(B, T)`` forward
changes every gemm's row count (see ``repro.llm.recompute``), and with it
the rounding of every score.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.data.tasks import ClozeItem, MultipleChoiceItem, TaskSuite
from repro.llm.recompute import generate
from repro.llm.tokenizer import WordTokenizer
from repro.nn import Module
from repro.tensor import ops
from repro.tensor.autograd import no_grad
from repro.tensor.device import Device
from repro.tensor.tensor import Tensor


@dataclass
class SuiteResult:
    suite: str
    accuracy: float  # percent
    n_items: int
    chance: float  # percent

    def __str__(self) -> str:
        return f"{self.suite}: {self.accuracy:.1f}% (chance {self.chance:.1f}%)"


@dataclass
class EvalReport:
    results: dict[str, SuiteResult] = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> float:
        if not self.results:
            raise ValueError("no suite scored")
        return float(np.mean([r.accuracy for r in self.results.values()]))

    def as_row(self, order: list[str]) -> list[float]:
        return [self.results[name].accuracy for name in order]


def option_log_likelihoods(
    model: Module,
    tokenizer: WordTokenizer,
    context: str,
    options: Sequence[str],
    device: Device,
) -> list[float]:
    """Length-normalized log p(option tokens | context), one per option.

    One forward per distinct ``option_ids[:-1]``; see the module docstring
    for why each score equals that of a forward of its option alone.
    """
    context_ids = tokenizer.encode(context, bos=True)
    groups: dict[tuple[int, ...], list[tuple[int, list[int]]]] = defaultdict(list)
    for index, option in enumerate(options):
        option_ids = tokenizer.encode(option)
        if not option_ids:
            raise ValueError(f"option {option!r} tokenizes to nothing")
        groups[tuple(option_ids[:-1])].append((index, option_ids))
    scores = [0.0] * len(options)
    for members in groups.values():
        full = context_ids + members[0][1]
        tokens = Tensor.from_numpy(np.asarray([full], dtype=np.int64), device=device)
        with no_grad():
            log_probs = ops.log_softmax(model(tokens), dim=-1)._np()[0]
        for index, option_ids in members:
            total = 0.0
            for position, token_id in enumerate(option_ids):
                # Token at full-index len(context_ids)+position is predicted
                # from the previous position.
                total += float(log_probs[len(context_ids) + position - 1, token_id])
            scores[index] = total / len(option_ids)
    return scores


def score_multiple_choice(
    model: Module,
    tokenizer: WordTokenizer,
    suite: TaskSuite,
    device: Device,
) -> SuiteResult:
    correct = 0
    for index, item in enumerate(suite.items):
        assert isinstance(item, MultipleChoiceItem)
        scores = option_log_likelihoods(model, tokenizer, item.context, item.options, device)
        if np.isnan(scores).any():
            # np.argmax would take the first NaN as the model's pick.
            raise FloatingPointError(f"{suite.name} item {index}: NaN option score {scores}")
        if int(np.argmax(scores)) == item.answer_index:
            correct += 1
    return SuiteResult(
        suite=suite.name,
        accuracy=100.0 * correct / max(len(suite.items), 1),
        n_items=len(suite.items),
        chance=100.0 * suite.chance_accuracy,
    )


def score_cloze(
    model: Module,
    tokenizer: WordTokenizer,
    suite: TaskSuite,
    device: Device,
) -> SuiteResult:
    correct = 0
    for item in suite.items:
        assert isinstance(item, ClozeItem)
        n_answer_tokens = len(tokenizer.encode(item.answer))
        if not n_answer_tokens:
            raise ValueError(f"cloze answer {item.answer!r} tokenizes to nothing")
        prediction = generate(
            model, tokenizer, item.prompt, max_new_tokens=n_answer_tokens, device=device
        )
        if prediction.strip() == item.answer.strip():
            correct += 1
    return SuiteResult(
        suite=suite.name,
        accuracy=100.0 * correct / max(len(suite.items), 1),
        n_items=len(suite.items),
        chance=0.0,
    )


def evaluate_suites(
    model: Module,
    tokenizer: WordTokenizer,
    suites: list[TaskSuite],
    device: Device,
) -> EvalReport:
    """Score every suite with the model in eval (deployment) mode."""
    was_training = model.training
    model.eval()
    report = EvalReport()
    try:
        for suite in suites:
            if suite.kind == "multiple_choice":
                result = score_multiple_choice(model, tokenizer, suite, device)
            elif suite.kind == "cloze":
                result = score_cloze(model, tokenizer, suite, device)
            else:
                raise ValueError(f"unknown suite kind {suite.kind!r}")
            report.results[suite.name] = result
    finally:
        model.train(was_training)
    return report
