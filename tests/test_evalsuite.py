"""Tests for the evaluation harness, perplexity, and size arithmetic."""

import numpy as np
import pytest

import repro.tensor as rt
import repro.nn as nn
from repro.data import standard_suites
from repro.data.tasks import ClozeItem, MultipleChoiceItem, TaskSuite
from repro.evalsuite import (
    GB,
    EvalReport,
    QuantScheme,
    attention_map_bytes,
    evaluate_suites,
    fp16_size_bytes,
    model_size_gb,
    option_log_likelihoods,
    paper_schemes,
    perplexity,
    score_cloze,
    score_multiple_choice,
)
from repro.llm import LLAMA_7B, MICRO, WordTokenizer, build_model
from repro.tensor import ops
from repro.tensor.autograd import no_grad
from repro.tensor.tensor import Tensor


class BigramOracle(nn.Module):
    """A stub LM that deterministically predicts via a bigram table."""

    def __init__(self, vocab_size: int, transitions: dict[tuple[int, int], None] | dict):
        super().__init__()
        self.vocab_size = vocab_size
        self.table = np.full((vocab_size, vocab_size), -10.0, dtype=np.float32)
        for prev, nxt in transitions:
            self.table[prev, nxt] = 10.0

    def forward(self, tokens: Tensor) -> Tensor:
        idx = tokens._np()
        logits = self.table[idx]
        return Tensor.from_numpy(logits, device=tokens.device)


class CountingLM(nn.Module):
    """Passes every forward through to ``inner`` and counts them."""

    def __init__(self, inner: nn.Module):
        super().__init__()
        self.inner = inner
        self.forwards = 0

    def forward(self, tokens: Tensor) -> Tensor:
        self.forwards += 1
        return self.inner(tokens)


def oracle_log_likelihood(model, tokenizer, context, option, device) -> float:
    """One full forward of ``context + option``: the per-option scorer."""
    context_ids = tokenizer.encode(context, bos=True)
    option_ids = tokenizer.encode(option)
    full = context_ids + option_ids
    tokens = Tensor.from_numpy(np.asarray([full], dtype=np.int64), device=device)
    with no_grad():
        log_probs = ops.log_softmax(model(tokens), dim=-1)._np()[0]
    total = 0.0
    for position, token_id in enumerate(option_ids):
        total += float(log_probs[len(context_ids) + position - 1, token_id])
    return total / len(option_ids)


class TestHarnessScoring:
    def _oracle_setup(self):
        tok = WordTokenizer(words=["sky", "is", "blue", "green"])
        blue = tok.encode("blue")[0]
        green = tok.encode("green")[0]
        is_id = tok.encode("is")[0]
        sky = tok.encode("sky")[0]
        model = BigramOracle(
            tok.vocab_size,
            {(sky, is_id): None, (is_id, blue): None},
        )
        return model, tok, blue, green

    def test_option_log_likelihood_prefers_oracle_answer(self):
        model, tok, _, _ = self._oracle_setup()
        ll_blue, ll_green = option_log_likelihoods(
            model, tok, "sky is", ["blue", "green"], rt.CPU
        )
        assert ll_blue > ll_green

    def test_length_normalization(self):
        """Multi-token options are compared per token, not by total mass."""
        tok = WordTokenizer(words=["a", "b", "c"])
        a, b = tok.encode("a")[0], tok.encode("b")[0]
        model = BigramOracle(tok.vocab_size, {(tok.bos_id, a): None, (a, a): None})
        ll_short, ll_long = option_log_likelihoods(model, tok, "", ["a", "a a"], rt.CPU)
        assert ll_short == pytest.approx(ll_long, abs=1e-4)

    def test_score_multiple_choice_oracle_is_perfect(self):
        model, tok, blue, green = self._oracle_setup()
        suite = TaskSuite(
            name="stub",
            kind="multiple_choice",
            items=[
                MultipleChoiceItem("sky is", ("green", "blue"), 1),
                MultipleChoiceItem("sky is", ("blue", "green"), 0),
            ],
            n_options=2,
        )
        result = score_multiple_choice(model, tok, suite, rt.CPU)
        assert result.accuracy == 100.0
        assert result.n_items == 2

    def test_empty_option_rejected(self):
        model, tok, _, _ = self._oracle_setup()
        with pytest.raises(ValueError):
            option_log_likelihoods(model, tok, "sky is", ["blue", ""], rt.CPU)

    def test_nan_score_raises_naming_suite_and_item(self):
        """np.argmax takes the first NaN: a NaN model must not score 100 %."""
        model, tok, _, _ = self._oracle_setup()
        model.table[:] = np.nan
        suite = TaskSuite(
            name="stub",
            kind="multiple_choice",
            items=[
                MultipleChoiceItem("sky is", ("blue", "green"), 0),
                MultipleChoiceItem("sky is", ("green", "blue"), 0),
            ],
            n_options=2,
        )
        with pytest.raises(FloatingPointError, match="stub item 0"):
            score_multiple_choice(model, tok, suite, rt.CPU)

    @pytest.mark.parametrize("answer", ["", "   "])
    def test_empty_cloze_answer_rejected(self, answer):
        """An answer of no tokens would match the empty generation."""
        tok = WordTokenizer(words=["capital", "paris"])
        model = build_model(MICRO, vocab_size=tok.vocab_size, seed=0)
        suite = TaskSuite(name="cloze", kind="cloze", items=[ClozeItem("capital", answer)])
        with pytest.raises(ValueError, match="tokenizes to nothing"):
            score_cloze(model, tok, suite, rt.CPU)

    def test_empty_report_has_no_mean(self):
        with pytest.raises(ValueError, match="no suite scored"):
            EvalReport().mean_accuracy

    def test_trained_model_beats_chance(self, world, tokenizer, trained_model):
        suites = standard_suites(world, n_items=16)
        report = evaluate_suites(trained_model, tokenizer, suites, rt.GPU)
        for name, result in report.results.items():
            if name == "triviaqa_syn":
                continue  # generation task can be near zero for weak models
            assert result.accuracy > result.chance, name
        assert report.mean_accuracy > 50.0

    def test_evaluate_restores_training_mode(self, world, tokenizer, trained_model):
        trained_model.train()
        evaluate_suites(
            trained_model, tokenizer, standard_suites(world, n_items=2)[:1], rt.GPU
        )
        assert trained_model.training
        trained_model.eval()

    def test_report_as_row_order(self, world, tokenizer, trained_model):
        suites = standard_suites(world, n_items=4)
        report = evaluate_suites(trained_model, tokenizer, suites, rt.GPU)
        order = [s.name for s in suites]
        row = report.as_row(order)
        assert len(row) == 7


class TestGroupedScoringEqualsOracle:
    """One forward per distinct option prefix, each score == its own forward."""

    WORDS = ["the", "sky", "is", "very", "big", "small", "tall", "red", "blue", "green"]

    @pytest.mark.parametrize(
        "options, n_prefixes",
        [
            (["red", "blue", "green", "tall"], 1),  # one token each
            (["big red", "big blue", "big green"], 1),  # shared prefix
            (["big red", "small red", "tall red"], 3),  # distinct prefixes
            (["red", "big red", "very big red", "big blue", "blue", "red"], 3),  # mixed
        ],
    )
    def test_scores_equal_per_option_forward(self, options, n_prefixes):
        tok = WordTokenizer(words=self.WORDS)
        model = build_model(MICRO, vocab_size=tok.vocab_size, seed=3)
        model.eval()
        counted = CountingLM(model)
        scores = option_log_likelihoods(counted, tok, "the sky is", options, rt.CPU)
        assert counted.forwards == n_prefixes
        expected = [
            oracle_log_likelihood(model, tok, "the sky is", option, rt.CPU)
            for option in options
        ]
        assert scores == expected

    def test_standard_suites_one_forward_per_item(self, world, tokenizer):
        """Every standard-suite option is one token: 12 forwards, not 40."""
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
        model.eval()
        counted = CountingLM(model)
        suites = [s for s in standard_suites(world, n_items=2) if s.kind == "multiple_choice"]
        for suite in suites:
            score_multiple_choice(counted, tokenizer, suite, rt.CPU)
        assert counted.forwards == 12
        for suite in suites:
            for item in suite.items:
                scores = option_log_likelihoods(
                    model, tokenizer, item.context, item.options, rt.CPU
                )
                assert scores == [
                    oracle_log_likelihood(model, tokenizer, item.context, option, rt.CPU)
                    for option in item.options
                ]


class TestPerplexity:
    def test_oracle_has_low_perplexity_on_its_bigrams(self):
        tok = WordTokenizer(words=["x", "y"])
        x, y = tok.encode("x")[0], tok.encode("y")[0]
        transitions = {
            (tok.bos_id, x): None, (x, y): None, (y, x): None,
            (y, tok.eos_id): None,
        }
        model = BigramOracle(tok.vocab_size, transitions)
        ppl = perplexity(model, tok, ["x y"], rt.CPU)
        assert ppl < 1.5

    def test_uniform_model_perplexity_is_vocab_size(self):
        tok = WordTokenizer(words=["x", "y"])
        model = BigramOracle(tok.vocab_size, {})  # all logits equal
        ppl = perplexity(model, tok, ["x y x"], rt.CPU)
        assert ppl == pytest.approx(tok.vocab_size, rel=0.01)

    def test_empty_corpus_raises(self):
        tok = WordTokenizer(words=["x"])
        model = BigramOracle(tok.vocab_size, {})
        with pytest.raises(ValueError):
            perplexity(model, tok, [], rt.CPU)


class TestModelSize:
    def test_fp16_llama_size_matches_paper(self):
        assert fp16_size_bytes(LLAMA_7B) / GB == pytest.approx(12.6, abs=0.1)

    def test_attention_map_claim(self):
        # ~224 GB (paper, decimal GB with rounded 7B params); ours is exact.
        measured = attention_map_bytes(LLAMA_7B, bits=4) / 1e9
        assert measured == pytest.approx(215.6, abs=1.0)

    def test_edkm3_size_matches_paper(self):
        size = model_size_gb(LLAMA_7B, paper_schemes()["edkm3"])
        assert size == pytest.approx(2.5, abs=0.1)

    def test_table3_size_column_ordering(self):
        """eDKM-3bit is the smallest of the paper's Table 3 rows.

        (The extra ``rtn3`` reference scheme is not a paper row and lands
        marginally below eDKM analytically, so it is excluded here.)
        """
        paper_rows = {
            "fp16", "rtn4", "gptq4_g128", "awq4_g128", "llmqat4",
            "gptq3_g128", "awq3_g128", "edkm3",
        }
        schemes = paper_schemes()
        sizes = {k: model_size_gb(LLAMA_7B, schemes[k]) for k in paper_rows}
        assert sizes["edkm3"] == min(sizes.values())
        assert sizes["fp16"] == max(sizes.values())
        assert sizes["gptq3_g128"] < sizes["gptq4_g128"]
        assert sizes["edkm3"] < sizes["gptq3_g128"]

    def test_group_overhead_increases_size(self):
        grouped = QuantScheme("g", body_bits=4, group_size=128, asymmetric=True)
        ungrouped = QuantScheme("p", body_bits=4, group_size=None)
        assert model_size_gb(LLAMA_7B, grouped) > model_size_gb(LLAMA_7B, ungrouped)

    def test_lut_overhead_is_small(self):
        lut = QuantScheme("l", body_bits=3, lut_entries=8, embed_bits=8)
        raw_bits = (
            LLAMA_7B.body_params() * 3
            + LLAMA_7B.embedding_params() * 8
            + LLAMA_7B.norm_params() * 16
        )
        overhead = model_size_gb(LLAMA_7B, lut) - raw_bits / 8 / GB
        assert 0 <= overhead < 0.01  # LUTs are tiny at 7B scale

    def test_all_paper_schemes_within_tolerance(self):
        """Every Table 3 size within 0.4 GB of the paper's column."""
        paper = {
            "fp16": 12.6, "rtn4": 3.5, "gptq4_g128": 3.7, "awq4_g128": 3.7,
            "llmqat4": 3.5, "gptq3_g128": 3.0, "awq3_g128": 3.0, "edkm3": 2.5,
        }
        schemes = paper_schemes()
        for key, expected in paper.items():
            measured = model_size_gb(LLAMA_7B, schemes[key])
            assert measured == pytest.approx(expected, abs=0.4), key
