"""Tests for the LLM substrate: tokenizer, presets, generation, fine-tuning."""

import numpy as np
import pytest

import repro.tensor as rt
from repro.core import EDKMConfig, SavedTensorPipeline
from repro.data import corpus_batches
from repro.llm import (
    LLAMA_7B,
    MICRO,
    TINY,
    FinetuneConfig,
    SequenceCache,
    WordTokenizer,
    batched_last_logits,
    build_model,
    decode_step,
    generate,
    train_causal_lm,
)


class TestTokenizer:
    def test_specials_present(self):
        tok = WordTokenizer(words=["cat", "dog"])
        assert tok.vocab_size == 6  # 4 specials + 2 words
        assert tok.pad_id == 0

    def test_encode_decode_roundtrip(self):
        tok = WordTokenizer(words=["the", "cat", "sat"])
        ids = tok.encode("the cat sat")
        assert tok.decode(ids) == "the cat sat"

    def test_bos_eos_framing(self):
        tok = WordTokenizer(words=["hi"])
        ids = tok.encode("hi", bos=True, eos=True)
        assert ids[0] == tok.bos_id
        assert ids[-1] == tok.eos_id
        assert tok.decode(ids) == "hi"
        assert tok.decode(ids, skip_special=False).startswith("<bos>")

    def test_unknown_word_maps_to_unk(self):
        tok = WordTokenizer(words=["hi"])
        assert tok.encode("zzz") == [tok.unk_id]

    def test_duplicate_words_deduped(self):
        tok = WordTokenizer(words=["a", "a", "b"])
        assert tok.vocab_size == 6

    def test_from_corpus(self):
        tok = WordTokenizer.from_corpus(["the cat", "the dog"])
        assert tok.vocab_size == 7
        assert tok.encode("cat dog") != [tok.unk_id, tok.unk_id]

    def test_out_of_range_decode(self):
        tok = WordTokenizer(words=["x"])
        assert tok.decode([9999]) == "<unk>"


class TestModelSpecs:
    def test_llama7b_parameter_count(self):
        """The spec arithmetic must land on the real LLaMA-7B count."""
        assert LLAMA_7B.total_params() == pytest.approx(6.74e9, rel=0.01)

    def test_body_plus_embed_plus_norm_is_total(self):
        for spec in (MICRO, TINY, LLAMA_7B):
            assert (
                spec.body_params() + spec.embedding_params() + spec.norm_params()
                == spec.total_params()
            )

    def test_build_model_matches_spec_params(self):
        model = build_model(MICRO, seed=0)
        assert model.num_parameters() == MICRO.total_params()

    def test_build_model_vocab_override(self):
        model = build_model(MICRO, vocab_size=99)
        assert model.embed.num_embeddings == 99
        assert model.lm_head.out_features == 99

    def test_head_dim(self):
        assert LLAMA_7B.head_dim == 128


class TestGeneration:
    def _setup(self):
        tok = WordTokenizer(words=["a", "b", "c"])
        model = build_model(MICRO, vocab_size=tok.vocab_size, seed=0)
        return model, tok

    def test_greedy_is_deterministic(self):
        model, tok = self._setup()
        out1 = generate(model, tok, "a b", max_new_tokens=4)
        out2 = generate(model, tok, "a b", max_new_tokens=4)
        assert out1 == out2

    def test_max_new_tokens_respected(self):
        model, tok = self._setup()
        out = generate(model, tok, "a", max_new_tokens=3)
        assert len(out.split()) <= 3

    def test_sampled_generation_runs(self):
        model, tok = self._setup()
        out = generate(
            model, tok, "a", max_new_tokens=3, temperature=1.0,
            rng=np.random.default_rng(0),
        )
        assert isinstance(out, str)

    def test_memorized_continuation(self, world, tokenizer, trained_model):
        """The trained model must reproduce a memorized fact verbatim."""
        fact = world.facts["colors"][0]
        prompt = f"the color of {fact.subject} is"
        out = generate(trained_model, tokenizer, prompt, max_new_tokens=1)
        assert out.strip() == fact.answer


class TestDecodeStep:
    """The K/V-cached step against the full-recompute reference."""

    def _model(self):
        model = build_model(MICRO, vocab_size=40, seed=1)
        model.eval()
        return model

    def test_matches_full_recompute_across_ragged_steps(self):
        model = self._model()
        rng = np.random.default_rng(0)
        ids = [rng.integers(4, 40, size=n).tolist() for n in (1, 7, 3)]
        caches = [SequenceCache(model) for _ in ids]
        for step in range(6):
            if step == 3:  # a row joins mid-flight and prefills beside decodes
                ids.append(rng.integers(4, 40, size=5).tolist())
                caches.append(SequenceCache(model))
            got = decode_step(model, ids, caches)
            want = batched_last_logits(model, ids)
            for row, g, w in zip(ids, got, want):
                np.testing.assert_allclose(g, w, atol=1e-4, rtol=0)
                assert int(np.argmax(g)) == int(np.argmax(w))
                row.append(int(np.argmax(g)))
            assert [c.length for c in caches] == [len(row) - 1 for row in ids]

    def test_sliding_window_drops_the_cache(self):
        model = self._model()
        ids = [[4 + i % 30 for i in range(model.max_seq_len - 1)]]
        cache = SequenceCache(model)
        for _ in range(3):
            (got,) = decode_step(model, ids, [cache])
            (want,) = batched_last_logits(model, [ids[0][-model.max_seq_len :]])
            np.testing.assert_allclose(got, want, atol=1e-4, rtol=0)
            ids[0].append(int(np.argmax(got)))
        # Steps 1 and 2 fit the window and cached; step 3 slid it.
        assert len(ids[0]) == model.max_seq_len + 2
        assert cache.length == 0 and cache.nbytes == 0

    def test_failed_step_commits_nothing(self):
        model = self._model()
        ids, cache = [[5, 6, 7]], SequenceCache(model)
        decode_step(model, ids, [cache])
        ids[0].append(8)
        head = model.lm_head.forward
        model.lm_head.forward = lambda x: (_ for _ in ()).throw(RuntimeError("boom"))
        try:
            with pytest.raises(RuntimeError):
                decode_step(model, ids, [cache])
        finally:
            model.lm_head.forward = head
        assert cache.length == 3
        (got,) = decode_step(model, ids, [cache])
        np.testing.assert_allclose(
            got, batched_last_logits(model, ids)[0], atol=1e-4, rtol=0
        )
        assert cache.length == 4

    def test_input_validation(self):
        model = self._model()
        assert decode_step(model, [], []) == []
        with pytest.raises(ValueError, match="caches"):
            decode_step(model, [[5]], [])
        with pytest.raises(ValueError, match="nothing to feed"):
            decode_step(model, [[]], [SequenceCache(model)])
        cache = SequenceCache(model)
        decode_step(model, [[5, 6]], [cache])
        with pytest.raises(ValueError, match="nothing to feed"):
            decode_step(model, [[5, 6]], [cache])  # no new token since


class TestFinetune:
    def test_loss_decreases(self, world, tokenizer):
        from repro.data import generate_corpus

        corpus = generate_corpus(world, 200, seed=20)
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=1)
        model.to("gpu")
        result = train_causal_lm(
            model,
            corpus_batches(corpus, tokenizer, 8, rt.GPU, epochs=2, seed=21),
            FinetuneConfig(lr=3e-3),
        )
        assert result.steps > 0
        assert result.final_loss < result.losses[0] * 0.7

    def test_max_steps_respected(self, world, tokenizer):
        from repro.data import generate_corpus

        corpus = generate_corpus(world, 200, seed=22)
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=1)
        model.to("gpu")
        result = train_causal_lm(
            model,
            corpus_batches(corpus, tokenizer, 8, rt.GPU, seed=23),
            FinetuneConfig(lr=1e-3),
            max_steps=3,
        )
        assert result.steps == 3

    def test_max_steps_pulls_no_extra_batch(self, world, tokenizer):
        from repro.data import generate_corpus

        corpus = generate_corpus(world, 200, seed=22)
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=1)
        model.to("gpu")
        pulled = []

        def counting():
            for batch in corpus_batches(corpus, tokenizer, 8, rt.GPU, seed=23):
                pulled.append(batch)
                yield batch

        feed = counting()
        result = train_causal_lm(model, feed, FinetuneConfig(lr=1e-3), max_steps=2)
        assert result.steps == 2
        assert len(pulled) == 2
        # The generator-backed loader still owns batch 3.
        assert next(feed) is pulled[2]

    def test_training_under_edkm_pipeline_matches_plain(self, world, tokenizer):
        """The offload pipeline must not change training trajectories."""
        from repro.data import generate_corpus
        from repro.distributed import LearnerGroup

        corpus = generate_corpus(world, 64, seed=24)

        def run(pipeline):
            model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=2)
            model.to("gpu")
            result = train_causal_lm(
                model,
                corpus_batches(corpus, tokenizer, 8, rt.GPU, seed=25),
                FinetuneConfig(lr=1e-3),
                pipeline=pipeline,
                max_steps=4,
            )
            return result.losses

        plain = run(None)
        piped = run(
            SavedTensorPipeline(EDKMConfig(group=LearnerGroup(4), shard_min_bytes=256))
        )
        assert np.allclose(plain, piped, rtol=1e-4)

    def test_paper_config(self):
        cfg = FinetuneConfig.paper()
        assert cfg.lr == 5e-5
        assert cfg.betas == (0.9, 0.95)
        assert cfg.weight_decay == 0.0
        assert cfg.grad_clip == 1.0
