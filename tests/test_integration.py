"""End-to-end integration tests across subsystem boundaries."""

import hashlib

import numpy as np
import pytest

import repro.tensor as rt
from repro.baselines import RTNConfig, quantize
from repro.core import (
    DKMConfig,
    EDKMConfig,
    ModelCompressor,
    SavedTensorPipeline,
)
from repro.data import alpaca_batches, generate_alpaca, standard_suites
from repro.distributed import LearnerGroup
from repro.evalsuite import evaluate_suites
from repro.llm import FinetuneConfig, train_causal_lm
from repro.memory import global_ledger, profile_memory

from tests.test_fastpath import micro_finetune


class TestCompressedFinetuneEndToEnd:
    def test_dkm_finetune_then_palettize_stays_accurate(
        self, world, tokenizer, model_factory
    ):
        """The headline pipeline: compress-while-fine-tuning, palettize,
        evaluate -- accuracy must stay close to the fp16 starting point."""
        suites = standard_suites(world, n_items=12)
        model = model_factory()
        fp16 = evaluate_suites(model, tokenizer, suites, rt.GPU)

        compressor = ModelCompressor(DKMConfig(bits=3, iters=4))
        compressor.compress(model)
        alpaca = generate_alpaca(world, 200, seed=30)
        result = train_causal_lm(
            model,
            alpaca_batches(alpaca, tokenizer, 16, rt.GPU, epochs=1, seed=31),
            FinetuneConfig(lr=1e-3),
        )
        assert result.final_loss < 1.0

        compressed = evaluate_suites(model, tokenizer, suites, rt.GPU)
        assert compressed.mean_accuracy > fp16.mean_accuracy - 15.0

        report = compressor.finalize(model)
        fp16_bytes = 2 * sum(p.numel for p in model.parameters())
        assert report.total_bytes < fp16_bytes / 3

    def test_edkm_beats_rtn_at_3bit(self, world, tokenizer, model_factory):
        """Table 3's core claim at substrate scale."""
        suites = standard_suites(world, n_items=12)

        rtn_model = model_factory()
        quantize(rtn_model, RTNConfig(bits=3, per_channel=False))
        rtn = evaluate_suites(rtn_model, tokenizer, suites, rt.GPU)

        edkm_model = model_factory()
        compressor = ModelCompressor(DKMConfig(bits=3, iters=4))
        compressor.compress(edkm_model)
        alpaca = generate_alpaca(world, 200, seed=32)
        train_causal_lm(
            edkm_model,
            alpaca_batches(alpaca, tokenizer, 16, rt.GPU, epochs=1, seed=33),
            FinetuneConfig(lr=1e-3),
        )
        edkm = evaluate_suites(edkm_model, tokenizer, suites, rt.GPU)
        # Train-time clustering must not trail naive 3-bit rounding.
        assert edkm.mean_accuracy >= rtn.mean_accuracy - 3.0


class TestMemoryPipelineIntegration:
    def test_edkm_training_step_reduces_cpu_footprint(
        self, monkeypatch, world, tokenizer
    ):
        """A full compressed training step under baseline offload vs full
        eDKM shows an order-of-magnitude CPU reduction."""
        from repro.core import offload
        from repro.llm import MICRO, build_model

        monkeypatch.setattr(offload, "SHARD_MIN_BYTES", 512)

        alpaca = generate_alpaca(world, 16, seed=40)

        def run_step(config):
            model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=3)
            model.to(rt.GPU)
            ModelCompressor(DKMConfig(bits=3, iters=2), config).compress(model)
            pipeline = SavedTensorPipeline(config)
            batches = alpaca_batches(alpaca, tokenizer, 8, rt.GPU, seed=41)
            with profile_memory([rt.CPU.tracker], global_ledger()) as prof:
                train_causal_lm(
                    model, batches, FinetuneConfig(lr=1e-3),
                    pipeline=pipeline, max_steps=1,
                )
            return prof.peak_delta("cpu")

        baseline = run_step(EDKMConfig.baseline_offload())
        full = run_step(EDKMConfig(group=LearnerGroup(8)))
        assert full < baseline / 5

    def test_traffic_ledger_sees_both_directions(self, world, tokenizer):
        from repro.llm import MICRO, build_model

        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=4)
        model.to(rt.GPU)
        pipeline = SavedTensorPipeline(EDKMConfig.baseline_offload())
        alpaca = generate_alpaca(world, 8, seed=42)
        with profile_memory([rt.CPU.tracker], global_ledger()) as prof:
            train_causal_lm(
                model,
                alpaca_batches(alpaca, tokenizer, 8, rt.GPU, seed=43),
                FinetuneConfig(lr=1e-3),
                pipeline=pipeline,
                max_steps=1,
            )
        assert prof.traffic("gpu", "cpu") > 0
        assert prof.traffic("cpu", "gpu") > 0


class TestSerializationIntegration:
    def test_save_load_state_roundtrip(self, tmp_path, world, tokenizer):
        from repro.llm import MICRO, build_model
        from repro.tensor import load_state, save_state

        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=5)
        path = str(tmp_path / "model.npz")
        save_state(path, model.state_dict())

        clone = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=6)
        clone.load_state_dict(load_state(path))
        tokens = rt.tensor(np.array([[1, 2, 3]]))
        assert np.array_equal(
            model(tokens.to(model.embed.weight.device)).numpy(),
            clone(tokens.to(clone.embed.weight.device)).numpy(),
        )

    def test_dtype_sidecar_preserved(self, tmp_path):
        from repro.tensor import load_state, save_state

        state = {"w": rt.tensor([1.0, 2.0], dtype="bfloat16")}
        path = str(tmp_path / "state.npz")
        save_state(path, state)
        loaded = load_state(path)
        assert loaded["w"].dtype is rt.bfloat16


class TestPinnedFinetuneBytes:
    """8-step MICRO fine-tunes, M+U+S and dense, at seeds 0-2: the losses and
    the ``finalize`` artifacts equal the values recorded before the index
    list was built lazily and ``hard_assign`` gathered through the pattern
    table.  Recorded with numpy 2.x and OpenBLAS, at 1 and 2 BLAS threads.
    """

    # (seed, path) -> (blake2b-8 of the float64 losses, blake2b-16 of the artifacts)
    PINNED = {
        (0, "mus"): ("2e58cb2232bb5338", "6c3f2fa82b78b468fd85f7f6f014c62c"),
        (0, "dense"): ("44dd31508e0c3c23", "6c3f2fa82b78b468fd85f7f6f014c62c"),
        (1, "mus"): ("6baa66de2c5c89ec", "abfc5be0866918b5836292e9e0089487"),
        (1, "dense"): ("8ca69e41adad2cf5", "abfc5be0866918b5836292e9e0089487"),
        (2, "mus"): ("e6cc98b9e78c42d5", "54d2e52b96c44c7f4a3abf380c45408e"),
        (2, "dense"): ("f5ccca9c51cf964a", "54d2e52b96c44c7f4a3abf380c45408e"),
    }
    CONFIGS = {
        "mus": lambda: EDKMConfig(group=LearnerGroup(8)),
        "dense": lambda: EDKMConfig(marshal=False, uniquify=False, shard=False),
    }

    @pytest.mark.parametrize("path", ["mus", "dense"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_losses_and_artifacts(self, seed, path):
        model, compressor, losses = micro_finetune(self.CONFIGS[path](), steps=8, seed=seed)
        assert len(losses) == 8
        loss_digest = hashlib.blake2b(
            np.asarray(losses, np.float64).tobytes(), digest_size=8
        ).hexdigest()
        artifacts = hashlib.blake2b(digest_size=16)
        for name, tensor in compressor.finalize(model).palettized.items():
            artifacts.update(name.encode())
            artifacts.update(np.ascontiguousarray(tensor.lut).tobytes())
            artifacts.update(np.ascontiguousarray(tensor.packed).tobytes())
        assert (loss_digest, artifacts.hexdigest()) == self.PINNED[seed, path]
