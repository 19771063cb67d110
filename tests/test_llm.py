"""Tests for the LLM substrate: tokenizer, presets, generation, fine-tuning."""

import functools
import gc
import hashlib
import weakref

import numpy as np
import pytest

import repro.llm.finetune as finetune_mod
import repro.tensor as rt
from repro.core import DKMConfig, EDKMConfig, ModelCompressor, SavedTensorPipeline
from repro.data import FactWorld, alpaca_batches, corpus_batches, corpus_vocabulary, generate_alpaca
from repro.distributed import LearnerGroup
from repro.llm import (
    LLAMA_7B,
    MICRO,
    TINY,
    FinetuneConfig,
    ModelSpec,
    SequenceCache,
    WordTokenizer,
    batched_last_logits,
    build_model,
    decode_step,
    generate,
    train_causal_lm,
)
from repro.memory import global_registry
from repro.nn import cross_entropy

from tests import oracles, test_integration


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
        assert sum(p.numel for p in model.parameters()) == MICRO.total_params()

    def test_build_model_vocab_override(self):
        model = build_model(MICRO, vocab_size=99)
        assert model.embed.num_embeddings == 99
        assert model.lm_head.out_features == 99


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

    def test_each_token_is_the_argmax_of_a_full_recompute(self):
        """Greedy decoding by hand: forward the whole window, take the
        argmax, stop at EOS."""
        model, tok = self._setup()
        ids = tok.encode("a b", bos=True)
        want = []
        for _ in range(4):
            (last,) = batched_last_logits(model, [ids])
            next_id = int(np.argmax(last))
            if next_id == tok.eos_id:
                break
            ids.append(next_id)
            want.append(next_id)
        assert generate(model, tok, "a b", max_new_tokens=4) == tok.decode(want)

    def test_greedy_ties_break_to_the_lowest_id(self):
        """The server and the offline reference pick with the same
        function, so a tie (equal logits) resolves the same way in both."""
        from repro.llm.recompute import greedy_next

        assert greedy_next(np.array([0.0, 2.0, 2.0, -1.0], np.float32)) == 1
        assert greedy_next(np.zeros(5, np.float32)) == 0

    @pytest.mark.parametrize("name", ["temperature", "rng"])
    def test_sampling_keywords_are_gone(self, name):
        """Decoding is greedy only: no caller ever sampled."""
        model, tok = self._setup()
        with pytest.raises(TypeError, match=name):
            generate(model, tok, "a", max_new_tokens=1, **{name: None})

    def test_module_is_reachable_as_an_attribute(self):
        """``repro.llm.recompute`` is the module; ``repro.llm.generate`` is
        the function it defines, re-exported under a different name."""
        import sys

        import repro.llm
        import repro.llm.recompute as module

        assert module is sys.modules["repro.llm.recompute"]
        assert repro.llm.recompute is module
        assert repro.llm.generate is module.generate
        assert repro.llm.generate_batch is module.generate_batch
        assert callable(module.greedy_next) and module.np is np

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

    # seed -> blake2b-8 of every float32 logits row of ``_pinned_steps``,
    # recorded while the step ran its own score, mask and softmax code
    # (numpy 2.x, OpenBLAS).
    PINNED_LOGITS = {0: "c913b61dde3654f5", 1: "ead75656b115f31a", 2: "4a56a7bde507885a"}

    @staticmethod
    def _pinned_steps(seed):
        """Five ragged decode steps of a float32 MICRO model, a row joining
        at the third; the digest of every logits row they return."""
        model = build_model(MICRO, vocab_size=40, seed=seed)
        model.eval()
        rng = np.random.default_rng(seed)
        ids = [rng.integers(4, 40, size=n).tolist() for n in (1, 7, 3)]
        caches = [SequenceCache(model) for _ in ids]
        digest = hashlib.blake2b(digest_size=8)
        for step in range(5):
            if step == 2:
                ids.append(rng.integers(4, 40, size=5).tolist())
                caches.append(SequenceCache(model))
            for row, logits in zip(ids, decode_step(model, ids, caches)):
                assert logits.dtype == np.float32
                digest.update(logits.tobytes())
                row.append(int(np.argmax(logits)))
        return digest.hexdigest()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_logits_equal_the_pins(self, seed):
        """The step's attention core is the training op's
        (``attention_weights``); at float32 every projection onto the grid
        is the identity, so the logits are the ones it computed before."""
        assert self._pinned_steps(seed) == self.PINNED_LOGITS[seed]

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

    def test_training_under_edkm_pipeline_matches_plain(
        self, monkeypatch, world, tokenizer
    ):
        """The offload pipeline must not change training trajectories."""
        from repro.core import offload
        from repro.data import generate_corpus
        from repro.distributed import LearnerGroup

        monkeypatch.setattr(offload, "SHARD_MIN_BYTES", 256)

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
        piped = run(SavedTensorPipeline(EDKMConfig(group=LearnerGroup(4))))
        assert np.allclose(plain, piped, rtol=1e-4)

    def test_default_config_follows_the_paper_recipe(self):
        cfg = FinetuneConfig()
        assert cfg.betas == (0.9, 0.95)
        assert cfg.weight_decay == 0.0
        assert cfg.grad_clip == 1.0


class TestStepResidency:
    """Every step's forward starts from the same device bytes: the previous
    step's gradients, logits and loss are gone before it allocates.

    The run is ``TestPinnedFinetuneBytes``' seed-0 M+U+S fine-tune (a 3-bit
    MICRO model, eight steps, so its loss pin applies) over a batch list
    made up front: the batches are the same device bytes at every step.
    """

    @pytest.fixture(scope="class")
    def run(self):
        config = EDKMConfig(group=LearnerGroup(8))
        world = FactWorld(seed=0)
        tokenizer = WordTokenizer(corpus_vocabulary(world))
        examples = generate_alpaca(world, 64, seed=1)
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
        model.to(rt.GPU)
        ModelCompressor(DKMConfig(bits=3, iters=2), config).compress(model)
        batches = list(alpaca_batches(examples, tokenizer, 8, rt.GPU, seed=2))
        gpu = global_registry().get("gpu")
        entry_bytes, clipped = [], []
        forward, clip = model.forward, finetune_mod.clip_grad_norm_

        def recording_forward(*args, **kwargs):
            entry_bytes.append(gpu.current_bytes)
            return forward(*args, **kwargs)

        def recording_clip(params, max_norm):
            params = list(params)
            clipped.append({id(p): weakref.ref(p.grad) for p in params})
            return clip(params, max_norm)

        model.forward = recording_forward
        # Other tests' garbage must not be collected mid-run: it would move
        # the device counter between two step entries.
        gc.collect()
        gc.disable()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(finetune_mod, "clip_grad_norm_", recording_clip)
                result = train_causal_lm(
                    model, batches, FinetuneConfig(lr=1e-3), pipeline=SavedTensorPipeline(config)
                )
        finally:
            gc.enable()
        return model, result.losses, entry_bytes, clipped

    def test_every_forward_enters_at_step_one_bytes(self, run):
        _, losses, entry_bytes, _ = run
        assert len(entry_bytes) == len(losses) == 8
        assert entry_bytes == [entry_bytes[0]] * 8

    def test_last_gradients_survive_return(self, run):
        model, _, _, clipped = run
        trainable = [p for p in model.parameters() if p.requires_grad]
        assert trainable
        for p in trainable:
            assert p.grad is not None
            assert p.grad is clipped[-1][id(p)]()
            assert clipped[-2][id(p)]() is None  # the step before freed its own

    def test_losses_equal_the_pins(self, run):
        _, losses, _, _ = run
        digest = hashlib.blake2b(np.asarray(losses, np.float64).tobytes(), digest_size=8)
        pinned = test_integration.TestPinnedFinetuneBytes.PINNED[0, "mus"][0]
        assert digest.hexdigest() == pinned


class TestResidualStreamPeak:
    """One M+U+S training forward at the e2e benchmark's model and batch
    shape.  Its GPU peak is reached at layer 0's attention op: the stream,
    the normed input, roped q and k, v and the context the op returns, six
    ``B·T·dim`` float32 activations.  The fused attention op keeps no
    ``B·heads·T²`` scores or map, and the SwiGLU op keeps no gate, so the
    MLP sits below it: the stream and the MLP-norm output, ``B·T·dim``
    float32 each, the op's ``B·T·hidden`` float32 output and the two bf16
    clustered weights it reads.  The old layer body, which kept the layer
    input and the MLP-norm output alive through argument passing, peaks in
    its MLP's ``down_proj``, above the attention term."""

    SPEC = ModelSpec("bench", vocab_size=0, dim=128, n_layers=2, n_heads=8, hidden_dim=256, max_seq_len=64)
    BATCH, SEQ, VOCAB = 16, 23, 200

    def _model(self, config):
        model = build_model(self.SPEC, vocab_size=self.VOCAB, seed=0)
        model.to(rt.GPU)
        ModelCompressor(DKMConfig(bits=3, iters=2), config).compress(model)
        return model

    def _tokens(self, seed=1):
        return rt.Tensor.from_numpy(
            np.random.default_rng(seed).integers(0, self.VOCAB, (self.BATCH, self.SEQ)), device=rt.GPU
        )

    def _forward_peak(self, forward):
        """Device bytes the forward adds at its peak over its entry bytes,
        and the op whose allocation reached it."""
        config = EDKMConfig(group=LearnerGroup(8))
        model = self._model(config)
        tokens = self._tokens()
        gpu = global_registry().get("gpu")
        # Other tests' garbage must not be collected mid-forward.
        gc.collect()
        gc.disable()
        try:
            with SavedTensorPipeline(config).step():
                entry = gpu.current_bytes
                gpu.reset_peak()
                forward(model, tokens)
                snapshot = gpu.snapshot()
                return snapshot.peak_bytes - entry, snapshot.peak_op
        finally:
            gc.enable()

    def test_peak_is_layer_0_attention(self):
        spec, rows = self.SPEC, self.BATCH * self.SEQ
        attention = 6 * rows * spec.dim * 4
        peak = self._forward_peak(lambda model, tokens: model(tokens))
        assert peak == (attention, "CausalAttention") == (1_130_496, "CausalAttention")

    def test_mlp_holds_no_gate(self):
        """Layer 0's MLP sublayer, under the stream its caller holds, peaks
        at the SwiGLU op's output over the normed input and the two bf16
        clustered weights: no ``B·T·hidden`` gate (884 736 B here)."""
        spec, rows = self.SPEC, self.BATCH * self.SEQ
        weight = spec.hidden_dim * spec.dim * 2  # bf16

        def mlp(model, tokens):
            layer = model.layers[0]
            return layer.mlp(model.embed(tokens), layer.mlp_norm)

        transient = 2 * rows * spec.dim * 4 + rows * spec.hidden_dim * 4 + 2 * weight
        assert self._forward_peak(mlp) == (transient, "SwiGLU") == (884_736, "SwiGLU")

    def test_attention_holds_no_score_map(self):
        """Layer 0's attention sublayer peaks at its op's output over the
        normed input it reads, roped q and k and v: five ``B·T·dim``
        activations and no ``B·heads·T²`` term (270 848 B here)."""
        spec, rows = self.SPEC, self.BATCH * self.SEQ
        def attention(model, tokens):
            layer = model.layers[0]
            return layer.attn(layer.attn_norm(model.embed(tokens)))

        peak = self._forward_peak(attention)
        assert peak == (5 * rows * spec.dim * 4, "CausalAttention") == (942_080, "CausalAttention")

    def test_the_body_that_kept_both_activations_peaks_in_its_mlp(self):
        """It holds the layer input and the MLP-norm output through the
        whole MLP, so its ``down_proj`` gemm reads the op's output beside
        four ``B·T·dim`` activations and the bf16 down weight."""
        spec, rows = self.SPEC, self.BATCH * self.SEQ
        down_weight = spec.dim * spec.hidden_dim * 2  # bf16
        mlp = 4 * rows * spec.dim * 4 + rows * spec.hidden_dim * 4 + down_weight
        unfreed, op = self._forward_peak(oracles.transformer_forward_unfreed)
        assert (unfreed, op) == (mlp, "MatMul") == (1_196_032, "MatMul")

    def _step_stats(self, patch=None):
        """Pipeline counters of one M+U+S training step (forward and backward),
        with ``patch(layer)`` applied to each decoder layer first."""
        config = EDKMConfig(group=LearnerGroup(8))
        model = self._model(config)
        for layer in model.layers if patch else ():
            patch(layer)
        pipeline = SavedTensorPipeline(config)
        with pipeline.step():
            cross_entropy(model(self._tokens()), self._tokens(2)).backward()
        assert all(p.grad is not None for p in model.parameters())
        return pipeline.stats

    @staticmethod
    def _composite_mlp(layer):
        layer.mlp.forward = functools.partial(oracles.swiglu_mlp_composite, layer.mlp)

    @staticmethod
    def _gated_mlp(layer):
        layer.mlp.forward = functools.partial(oracles.swiglu_mlp_gated_composite, layer.mlp)

    @staticmethod
    def _composite_attention(layer):
        layer.attn.forward = functools.partial(oracles.attention_forward_unfreed, layer.attn)

    def test_swiglu_offloads_no_gate(self):
        """The op saves ``h``, ``W̃_g`` and ``W̃_u``; the gate projection
        beside the gated up projection saved ``h`` and ``W̃_gᵀ``, then
        ``h`` again, ``W̃_u`` and the gate.  Per layer two packs go: the
        gate, a ``B·T·hidden`` float32 host copy sharded and gathered back
        in backward, and the second ``h``, a marshal hit that was gathered
        too."""
        fused, gated = self._step_stats(), self._step_stats(self._gated_mlp)
        spec, layers, rows = self.SPEC, self.SPEC.n_layers, self.BATCH * self.SEQ
        assert gated.tensors_packed - fused.tensors_packed == 2 * layers
        assert gated.copies_made - fused.copies_made == layers
        assert gated.copies_avoided - fused.copies_avoided == layers
        assert gated.gathers - fused.gathers == 2 * layers
        dropped = gated.bytes_copied - fused.bytes_copied
        assert dropped == layers * rows * spec.hidden_dim * 4 == 753_664
        avoided = gated.bytes_avoided - fused.bytes_avoided
        assert avoided == layers * rows * spec.dim * 4 == 376_832

    def test_swiglu_offloads_four_tensors_fewer_than_the_chain(self):
        """Against the ``MatMul``, ``Silu``, ``MatMul`` and ``Mul`` chain,
        which saved ``h`` and ``W̃_gᵀ``, the gate, ``h`` and ``W̃_uᵀ``, and
        the silu output and the up activation: three ``B·T·hidden`` float32
        host copies and the second ``h`` go per layer."""
        fused, composite = self._step_stats(), self._step_stats(self._composite_mlp)
        spec, layers, rows = self.SPEC, self.SPEC.n_layers, self.BATCH * self.SEQ
        assert composite.tensors_packed - fused.tensors_packed == 4 * layers
        assert composite.copies_made - fused.copies_made == 3 * layers
        assert composite.gathers - fused.gathers == 4 * layers
        dropped = composite.bytes_copied - fused.bytes_copied
        assert dropped == layers * 3 * rows * spec.hidden_dim * 4 == 2_260_992
        assert composite.bytes_avoided - fused.bytes_avoided == layers * rows * spec.dim * 4

    def test_fused_attention_offloads_one_map_fewer_per_layer(self):
        """The fused op saves q, k and v; the composite saved q, ``kᵀ``, the
        attention map for its softmax and again for its ``@ v``, and v.  The
        map's first save was a ``B·heads·T²`` float32 host copy and its
        second a marshal hit, and backward gathered it back for each, so
        per layer two packs, one copy and two gathers go, and the bytes
        copied and the bytes avoided each fall by one map."""
        fused, composite = self._step_stats(), self._step_stats(self._composite_attention)
        spec, layers = self.SPEC, self.SPEC.n_layers
        score_map = self.BATCH * spec.n_heads * self.SEQ * self.SEQ * 4
        assert composite.tensors_packed - fused.tensors_packed == 2 * layers
        assert composite.copies_made - fused.copies_made == layers
        assert composite.gathers - fused.gathers == 2 * layers
        assert composite.bytes_copied - fused.bytes_copied == layers * score_map == 541_696
        assert composite.bytes_avoided - fused.bytes_avoided == layers * score_map

class TestOptimizerMomentBytes:
    """AdamW's first and second moments after one ``train_causal_lm`` step
    at the e2e benchmark's shape: two float32 host arrays per trainable
    parameter, 8 bytes per weight in all, which no ``MemoryTracker`` counts
    (``gpu_peak_bytes`` and ``node_peak_bytes`` leave them out)."""

    def test_moments_are_eight_untracked_bytes_per_parameter(self, monkeypatch):
        created = []

        class RecordingAdamW(finetune_mod.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(finetune_mod, "AdamW", RecordingAdamW)
        world = FactWorld(seed=0)
        tokenizer = WordTokenizer(corpus_vocabulary(world))
        model = build_model(TestResidualStreamPeak.SPEC, vocab_size=tokenizer.vocab_size, seed=0)
        model.to(rt.GPU)
        config = EDKMConfig(group=LearnerGroup(8))
        ModelCompressor(DKMConfig(bits=3, iters=2), config).compress(model)
        batches = alpaca_batches(generate_alpaca(world, 16, seed=2), tokenizer, 16, rt.GPU, seed=7)
        train_causal_lm(model, batches, pipeline=SavedTensorPipeline(config), max_steps=1)
        (optimizer,) = created
        trainable = sum(p.numel for p in model.parameters() if p.requires_grad)
        moments = optimizer.m + optimizer.v
        assert all(type(moment) is np.ndarray for moment in moments)
        assert sum(moment.nbytes for moment in moments) == 8 * trainable == 3_120_128
