"""Tests for model-level compression (ClusteredLinear + ModelCompressor)."""

import numpy as np
import pytest

import repro.tensor as rt
import repro.nn as nn
from repro.core import DKMConfig, ModelCompressor
from repro.core.compressor import ClusteredLinear
from repro.core.palettize import PalettizedTensor
from repro.llm import MICRO, build_model


def _linear(in_f=16, out_f=12, seed=0):
    layer = nn.Linear(in_f, out_f, bias=True, rng=np.random.default_rng(seed))
    layer.to("gpu")
    return layer


def _x(n=4, in_f=16, seed=1):
    return rt.Tensor.from_numpy(
        np.random.default_rng(seed).standard_normal((n, in_f)).astype(np.float32),
        device="gpu",
    )


class TestClusteredLinear:
    def test_weight_converted_to_16bit(self):
        wrapped = ClusteredLinear(_linear(), DKMConfig(bits=3))
        assert wrapped.inner.weight.dtype is rt.bfloat16

    def test_train_forward_shape(self):
        wrapped = ClusteredLinear(_linear(), DKMConfig(bits=3))
        assert wrapped(_x()).shape == (4, 12)

    def test_train_forward_approximates_original(self):
        layer = _linear()
        original = layer(_x()).numpy()
        wrapped = ClusteredLinear(layer, DKMConfig(bits=4, iters=10))
        clustered = wrapped(_x()).numpy()
        rel = np.mean((clustered - original) ** 2) / np.mean(original**2)
        assert rel < 0.05

    def test_gradient_reaches_master_weight(self):
        wrapped = ClusteredLinear(_linear(), DKMConfig(bits=3))
        out = wrapped(_x())
        (out * out).sum().backward()
        assert wrapped.inner.weight.grad is not None
        assert float(np.abs(wrapped.inner.weight.grad.numpy()).max()) > 0

    def test_eval_uses_hard_weights(self):
        wrapped = ClusteredLinear(_linear(), DKMConfig(bits=3, iters=8))
        wrapped.eval()
        out = wrapped(_x())
        # Hard weights: every weight is exactly one of 8 centroid values.
        hard = wrapped._hard_weight().numpy()
        assert len(np.unique(hard)) <= 8
        assert out.shape == (4, 12)

    def test_eval_cache_reused_and_invalidated(self):
        wrapped = ClusteredLinear(_linear(), DKMConfig(bits=3))
        wrapped.eval()
        first = wrapped._hard_weight()
        assert wrapped._hard_weight() is first
        wrapped.train()
        wrapped.eval()
        assert wrapped._hard_weight() is not first

    def test_palettize_artifact(self):
        wrapped = ClusteredLinear(_linear(), DKMConfig(bits=3, iters=8))
        wrapped(_x())  # initialize clustering state
        palette = wrapped.palettize()
        assert palette.bits == 3
        assert palette.shape == (12, 16)
        assert palette.lut.size == 8
        err = np.mean(
            (palette.dequantize() - wrapped.inner.weight.numpy().astype(np.float32))
            ** 2
        )
        assert err < np.var(wrapped.inner.weight.numpy()) * 0.1

    def test_uniquify_toggle_changes_path_not_output(self):
        layer_a, layer_b = _linear(seed=3), _linear(seed=3)
        a = ClusteredLinear(layer_a, DKMConfig(bits=3, iters=3), uniquify_enabled=True)
        b = ClusteredLinear(layer_b, DKMConfig(bits=3, iters=3), uniquify_enabled=False)
        assert np.allclose(a(_x()).numpy(), b(_x()).numpy(), atol=1e-5)


class TestModelCompressor:
    def _model(self):
        model = nn.Transformer(
            vocab_size=30, dim=16, n_layers=1, n_heads=2, hidden_dim=32, max_seq_len=8
        )
        model.to("gpu")
        return model

    def test_wraps_all_linears(self):
        model = self._model()
        compressor = ModelCompressor(DKMConfig(bits=3))
        compressor.compress(model)
        # 4 attention + 3 mlp + 1 head = 8 linears
        assert len(compressor.wrapped) == 8
        assert isinstance(model.lm_head, ClusteredLinear)
        assert isinstance(model.layers[0].attn.q_proj, ClusteredLinear)

    def test_skip_names(self):
        model = self._model()
        compressor = ModelCompressor(DKMConfig(bits=3), skip_names=("lm_head",))
        compressor.compress(model)
        assert not isinstance(model.lm_head, ClusteredLinear)
        assert len(compressor.wrapped) == 7

    def test_no_linears_raises(self):
        compressor = ModelCompressor(DKMConfig(bits=3))
        with pytest.raises(ValueError):
            compressor.compress(nn.RMSNorm(4))

    def test_compressed_model_still_runs(self):
        model = self._model()
        ModelCompressor(DKMConfig(bits=3)).compress(model)
        tokens = rt.Tensor.from_numpy(np.array([[1, 2, 3]]), device="gpu")
        assert model(tokens).shape == (1, 3, 30)

    def test_finalize_report(self):
        model = self._model()
        compressor = ModelCompressor(DKMConfig(bits=3))
        compressor.compress(model)
        tokens = rt.Tensor.from_numpy(np.array([[1, 2, 3]]), device="gpu")
        model(tokens)
        report = compressor.finalize(model)
        # Every clustered linear palettized at 3 bits.
        for name in compressor.wrapped:
            assert report.palettized[name].bits == 3
        # Embedding palettized at 8 bits.
        assert report.palettized["embed.weight"].bits == 8
        # Norm weights kept at 16-bit.
        assert any("norm" in name for name in report.uncompressed)
        assert report.total_bytes > 0

    def test_finalize_smaller_than_fp16(self):
        model = self._model()
        compressor = ModelCompressor(DKMConfig(bits=3))
        compressor.compress(model)
        tokens = rt.Tensor.from_numpy(np.array([[1, 2]]), device="gpu")
        model(tokens)
        report = compressor.finalize(model)
        fp16_bytes = 2 * sum(p.numel for p in model.parameters())
        assert report.total_bytes < fp16_bytes / 3

    def test_keywords_apply(self):
        compressor = ModelCompressor(DKMConfig(bits=3), skip_names=("layer0",))
        assert compressor.skip_names == ("layer0",)


@pytest.mark.parametrize(
    "weight_dtype", [rt.bfloat16, rt.float16], ids=lambda dtype: dtype.name
)
@pytest.mark.parametrize("bits", [2, 3, 4])
class TestFinalizeIsPure:
    """``finalize`` is a pure function of the weights and the trained
    clusterer state, and eval mode scores what it ships.  Both used to
    refine the live state in place, so each call converged a little further:
    two finalizes of a MICRO 3-bit model agreed on 1 of 16 tensors (the
    embedding), and no eval-mode weight equalled its artifact."""

    def _tokens(self):
        return rt.Tensor.from_numpy(np.array([[1, 5, 9, 3]]), device="gpu")

    def _trained(self, bits, weight_dtype):
        model = build_model(MICRO, vocab_size=40).to("gpu")
        compressor = ModelCompressor(
            DKMConfig(bits=bits, iters=4, weight_dtype=weight_dtype)
        )
        compressor.compress(model)
        model(self._tokens())  # one training forward: every layer has a trained state
        return model, compressor

    def test_second_finalize_is_byte_identical(self, bits, weight_dtype):
        model, compressor = self._trained(bits, weight_dtype)
        centroids = {
            name: layer.clusterer.state.centroids.copy()
            for name, layer in compressor.wrapped.items()
        }
        first = compressor.finalize(model).palettized
        second = compressor.finalize(model).palettized
        assert len(first) == 16
        for name, tensor in first.items():
            again = second[name]
            assert tensor.lut.tobytes() == again.lut.tobytes(), name
            assert tensor.packed.tobytes() == again.packed.tobytes(), name
        for name, layer in compressor.wrapped.items():
            assert layer.clusterer.state.centroids.tobytes() == centroids[name].tobytes()

    def test_artifact_is_the_eval_mode_weight(self, bits, weight_dtype):
        model, compressor = self._trained(bits, weight_dtype)
        report = compressor.finalize(model)
        model.eval()
        for name, layer in compressor.wrapped.items():
            artifact = report.palettized[name]
            hard = layer._hard_weight()._compute()
            assert artifact.dequantize().tobytes() == hard.tobytes(), name
            # The shipped LUT holds 16-bit values, as ``nbytes`` counts them.
            lut = artifact.lut
            assert len(lut) <= 2**bits, name
            on_grid = rt.Tensor.from_numpy(lut, dtype=weight_dtype)._compute()
            assert lut.tobytes() == on_grid.tobytes()

    def test_embedding_lut_is_on_the_weight_grid(self, bits, weight_dtype):
        """``nbytes`` counts 2 bytes a LUT entry, so the embedding ships
        16-bit values too, in as many entries.  Its k-means LUT used to stay
        float32, on neither grid."""
        model, compressor = self._trained(bits, weight_dtype)
        embedding = compressor.finalize(model).palettized["embed.weight"]
        assert embedding.lut.size == 2**compressor.embedding_bits
        on_grid = rt.Tensor.from_numpy(embedding.lut, dtype=weight_dtype)._compute()
        assert embedding.lut.tobytes() == on_grid.tobytes()
        # The projected LUT is also the one the final assignment used.
        flat = model.embed.weight._compute().reshape(-1)
        want = PalettizedTensor.from_weights(flat, embedding.lut, embedding.bits)
        assert want.packed.tobytes() == embedding.packed.tobytes()

    def test_finalize_leaves_eval_outputs_unchanged(self, bits, weight_dtype):
        """Finalizing between two eval forwards changes neither logit."""
        model, compressor = self._trained(bits, weight_dtype)
        model.eval()
        with rt.no_grad():
            before = model(self._tokens()).numpy().copy()
            compressor.finalize(model)
            after = model(self._tokens()).numpy()
        assert before.tobytes() == after.tobytes()


class _BodyAndHead(nn.Module):
    def __init__(self):
        super().__init__()
        self.body = nn.Linear(16, 16, rng=np.random.default_rng(0))
        self.head = nn.Linear(16, 8, rng=np.random.default_rng(1))


class TestFinalizeCountsSkippedLinears:
    """A Linear exempted by ``skip_names`` ships at 16-bit, weight and
    bias, and is reported as such."""

    def _report(self, skip_names):
        model = _BodyAndHead()
        model.to("gpu")
        compressor = ModelCompressor(DKMConfig(bits=3), skip_names=skip_names)
        compressor.compress(model)
        return compressor.finalize(model)

    def test_skipped_head_is_uncompressed(self):
        report = self._report(("head",))
        assert list(report.palettized) == ["body"]
        assert report.uncompressed == {
            "head.weight": 2 * 16 * 8,
            "head.bias": 2 * 8,
            "body.bias": 2 * 16,
        }
        assert report.total_bytes == 416

    def test_wrapped_linears_are_not_double_counted(self):
        report = self._report(())
        assert list(report.palettized) == ["body", "head"]
        assert report.uncompressed == {"body.bias": 2 * 16, "head.bias": 2 * 8}

    def test_skipping_lm_head_adds_its_16_bit_bytes(self):
        def report(skip_names):
            model = nn.Transformer(
                vocab_size=30, dim=16, n_layers=1, n_heads=2, hidden_dim=32, max_seq_len=8
            )
            model.to("gpu")
            compressor = ModelCompressor(DKMConfig(bits=3), skip_names=skip_names)
            compressor.compress(model)
            return compressor.finalize(model)

        full, skipped = report(()), report(("lm_head",))
        assert "lm_head" not in skipped.palettized
        assert skipped.uncompressed["lm_head.weight"] == 2 * 30 * 16
        assert skipped.total_bytes == (
            full.total_bytes - full.palettized["lm_head"].nbytes + 2 * 30 * 16
        )
