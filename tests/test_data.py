"""Tests for the synthetic data world, corpus, instructions and suites."""

import numpy as np

import repro.tensor as rt
from repro.data import (
    FactWorld,
    alpaca_batches,
    corpus_batches,
    generate_alpaca,
    generate_corpus,
    render_example,
    standard_suites,
)
from repro.data.corpus import corpus_vocabulary, render_fact, _FAMILY_WEIGHTS
from repro.data.tasks import ClozeItem, MultipleChoiceItem
from repro.nn.loss import IGNORE_INDEX


class TestFactWorld:
    def test_deterministic_per_seed(self):
        a, b = FactWorld(seed=3), FactWorld(seed=3)
        assert [f.answer for f in a.all_facts()] == [f.answer for f in b.all_facts()]

    def test_different_seeds_differ(self):
        a, b = FactWorld(seed=0), FactWorld(seed=1)
        assert [f.answer for f in a.all_facts()] != [f.answer for f in b.all_facts()]

    def test_all_families_present(self):
        world = FactWorld()
        assert set(world.facts) == {
            "colors", "tools", "habitats", "categories", "capitals",
            "sizes", "sequences",
        }

    def test_capitals_are_rare_flagged(self):
        world = FactWorld()
        assert all(f.rare for f in world.facts["capitals"])
        assert not any(f.rare for f in world.facts["colors"])

    def test_distractors_exclude_answer(self):
        for fact in FactWorld().all_facts():
            assert fact.answer not in fact.distractor_pool

    def test_capitals_bijective(self):
        world = FactWorld()
        answers = [f.answer for f in world.facts["capitals"]]
        assert len(set(answers)) == len(answers)

    def test_size_facts_respect_order(self):
        world = FactWorld()
        order = world.size_order
        for fact in world.facts["sizes"]:
            small, big = fact.subject.split()
            assert order.index(big) > order.index(small)
            assert fact.answer == big

    def test_sequence_facts_follow_steps(self):
        from repro.data.facts import _STEPS

        world = FactWorld()
        for fact in world.facts["sequences"]:
            activity, step = fact.subject.split()
            steps = _STEPS[activity]
            assert fact.answer == steps[steps.index(step) + 1]

    def test_vocabulary_covers_all_facts(self):
        world = FactWorld()
        vocab = set(world.vocabulary())
        for fact in world.all_facts():
            assert fact.answer in vocab


class TestCorpus:
    def test_size(self):
        world = FactWorld()
        assert len(generate_corpus(world, 500, seed=0)) == 500

    def test_deterministic(self):
        world = FactWorld()
        assert generate_corpus(world, 100, seed=5) == generate_corpus(world, 100, seed=5)

    def test_rare_families_underrepresented(self):
        world = FactWorld()
        corpus = generate_corpus(world, 4000, seed=1)
        capital_lines = sum(1 for s in corpus if "capital" in s)
        color_lines = sum(1 for s in corpus if "color" in s or " is " in s)
        assert capital_lines < len(corpus) * _FAMILY_WEIGHTS["capitals"] / 10
        assert capital_lines > 0
        assert color_lines > capital_lines

    def test_render_fact_templates(self):
        world = FactWorld()
        fact = world.facts["colors"][0]
        text = render_fact(fact, "the color of {subject} is {answer}")
        assert fact.subject in text and fact.answer in text

    def test_vocabulary_closed(self):
        """Every corpus word is in the declared vocabulary."""
        world = FactWorld()
        vocab = set(corpus_vocabulary(world))
        for sentence in generate_corpus(world, 1000, seed=2):
            for word in sentence.split():
                assert word in vocab, word


class TestAlpaca:
    def test_examples_have_qa_structure(self):
        world = FactWorld()
        for example in generate_alpaca(world, 50, seed=0):
            assert example.question.endswith("?")
            assert "question :" in example.text
            assert "answer :" in example.text

    def test_answers_are_correct_facts(self):
        world = FactWorld()
        fact = world.facts["capitals"][0]
        example = render_example(fact)
        assert fact.answer in example.answer
        assert fact.subject in example.question

    def test_vocabulary_closed(self, world, tokenizer):
        for example in generate_alpaca(world, 200, seed=1):
            ids = tokenizer.encode(example.text)
            assert tokenizer.unk_id not in ids, example.text


class TestTasks:
    def test_standard_suites_names_and_kinds(self, world):
        suites = standard_suites(world, n_items=8)
        by_name = {s.name: s for s in suites}
        assert set(by_name) == {
            "piqa_syn", "hellaswag_syn", "winogrande_syn", "arc_easy_syn",
            "arc_challenge_syn", "triviaqa_syn", "mmlu_syn",
        }
        assert by_name["triviaqa_syn"].kind == "cloze"
        assert by_name["piqa_syn"].n_options == 2
        assert by_name["mmlu_syn"].n_options == 4

    def test_mc_items_wellformed(self, world):
        for suite in standard_suites(world, n_items=8):
            if suite.kind != "multiple_choice":
                continue
            for item in suite.items:
                assert isinstance(item, MultipleChoiceItem)
                assert 0 <= item.answer_index < len(item.options)
                assert len(set(item.options)) == len(item.options)

    def test_cloze_items_wellformed(self, world):
        suite = next(s for s in standard_suites(world, 8) if s.kind == "cloze")
        for item in suite.items:
            assert isinstance(item, ClozeItem)
            assert item.prompt.endswith("is")
            assert item.answer

    def test_answers_match_world(self, world):
        """The flagged correct option is the true fact answer."""
        suites = {s.name: s for s in standard_suites(world, n_items=16)}
        color_by_subject = {
            f"the color of {f.subject} is": f.answer for f in world.facts["colors"]
        }
        for item in suites["arc_easy_syn"].items:
            assert item.options[item.answer_index] == color_by_subject[item.context]

    def test_chance_accuracy(self, world):
        suites = {s.name: s for s in standard_suites(world, 4)}
        assert suites["piqa_syn"].chance_accuracy == 0.5
        assert suites["arc_easy_syn"].chance_accuracy == 0.25
        assert suites["triviaqa_syn"].chance_accuracy == 0.0

    def test_deterministic(self, world):
        a = standard_suites(world, n_items=8, seed=55)
        b = standard_suites(world, n_items=8, seed=55)
        assert [i.context for i in a[0].items] == [i.context for i in b[0].items]

    def test_task_vocabulary_closed(self, world, tokenizer):
        for suite in standard_suites(world, n_items=16):
            for item in suite.items:
                if isinstance(item, MultipleChoiceItem):
                    texts = [item.context] + list(item.options)
                else:
                    texts = [item.prompt, item.answer]
                for text in texts:
                    assert tokenizer.unk_id not in tokenizer.encode(text), text


class TestLoader:
    def test_corpus_batch_shapes(self, world, tokenizer):
        corpus = generate_corpus(world, 40, seed=0)
        batches = list(corpus_batches(corpus, tokenizer, 8, rt.CPU, seed=1))
        assert sum(b.tokens.shape[0] for b in batches) == 40
        for batch in batches:
            assert batch.tokens.shape == batch.targets.shape

    def test_targets_are_shifted_tokens(self, world, tokenizer):
        corpus = ["the color of grass is green"]
        batch = next(iter(corpus_batches(corpus, tokenizer, 1, rt.CPU)))
        tokens = batch.tokens.numpy()[0]
        targets = batch.targets.numpy()[0]
        seq_len = (tokens != tokenizer.pad_id).sum()
        for t in range(seq_len - 1):
            assert targets[t] == tokens[t + 1]

    def test_padding_positions_ignored(self, world, tokenizer):
        corpus = ["grass is green", "the color of the ocean is blue today maybe"]
        batch = next(iter(corpus_batches(corpus, tokenizer, 2, rt.CPU)))
        targets = batch.targets.numpy()
        tokens = batch.tokens.numpy()
        for row_tokens, row_targets in zip(tokens, targets):
            pad_from = (row_tokens != tokenizer.pad_id).sum()
            assert np.all(row_targets[pad_from:] == IGNORE_INDEX)

    def test_alpaca_masks_question(self, world, tokenizer):
        examples = generate_alpaca(world, 4, seed=3)
        batch = next(iter(alpaca_batches(examples, tokenizer, 4, rt.CPU, seed=4)))
        targets = batch.targets.numpy()
        for i, example in enumerate(batch.tokens.numpy()):
            # Some prefix must be masked and some suffix must be scored.
            row = targets[i]
            scored = row != IGNORE_INDEX
            assert scored.any()
            first_scored = int(np.argmax(scored))
            assert first_scored > 2  # question tokens are masked

    def test_epochs_multiply_batches(self, world, tokenizer):
        corpus = generate_corpus(world, 16, seed=5)
        one = list(corpus_batches(corpus, tokenizer, 8, rt.CPU, epochs=1))
        three = list(corpus_batches(corpus, tokenizer, 8, rt.CPU, epochs=3))
        assert len(three) == 3 * len(one)

    def test_max_len_truncation(self, world, tokenizer):
        corpus = generate_corpus(world, 8, seed=6)
        batches = list(
            corpus_batches(corpus, tokenizer, 4, rt.CPU, max_len=5, seed=7)
        )
        for batch in batches:
            assert batch.tokens.shape[1] <= 5
