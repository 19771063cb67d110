"""Tests for the baseline compressors (RTN, GPTQ, AWQ, QAT) and
the one ``quantize(model, config, run_fn=)`` front-end over them."""

import numpy as np
import pytest

import repro.tensor as rt
import repro.nn as nn
from repro.baselines import (
    AWQConfig,
    FakeQuantSTE,
    GPTQConfig,
    QATConfig,
    QATLinear,
    RTNConfig,
    fake_quantize,
    gptq_quantize_weight,
    quantization_mse,
    quantize,
    quantize_uniform,
    record_linear_inputs,
)
from repro.baselines.awq import awq_scale_search
from repro.baselines.calibration import LayerCalibration
from repro.core import DKMConfig, ModelCompressor
from repro.core.compressor import ClusteredLinear


def _weight(shape=(8, 16), seed=0, scale=0.1):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(
        np.float32
    )


class TestQuantGrids:
    def test_symmetric_codes_within_range(self):
        q = quantize_uniform(_weight(), bits=4, symmetric=True)
        assert q.codes.max() <= 7 and q.codes.min() >= -7

    def test_asymmetric_codes_within_range(self):
        q = quantize_uniform(_weight(), bits=4, symmetric=False)
        assert q.codes.max() <= 15 and q.codes.min() >= 0

    def test_dequantize_error_bounded_by_half_step(self):
        w = _weight()
        q = quantize_uniform(w, bits=8, symmetric=False)
        err = np.abs(q.dequantize().reshape(w.shape) - w)
        assert np.all(err <= q.scales.max() / 2 + 1e-7)

    def test_per_channel_beats_per_tensor(self):
        rng = np.random.default_rng(0)
        # Rows at wildly different scales: per-channel must win.
        w = rng.standard_normal((4, 64)).astype(np.float32)
        w *= np.array([0.001, 0.01, 0.1, 1.0], dtype=np.float32)[:, None]
        per_channel = fake_quantize(w, 4, per_channel=True)
        per_tensor = fake_quantize(w, 4, per_channel=False)
        assert quantization_mse(w, per_channel) < quantization_mse(w, per_tensor)

    def test_group_wise_beats_per_channel_on_structured_rows(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 64)).astype(np.float32)
        w[:, 32:] *= 100.0  # two very different column groups
        grouped = fake_quantize(w, 4, group_size=32)
        per_channel = fake_quantize(w, 4, per_channel=True)
        assert quantization_mse(w, grouped) < quantization_mse(w, per_channel)

    def test_group_size_must_divide(self):
        with pytest.raises(ValueError):
            quantize_uniform(_weight((4, 10)), bits=4, group_size=3)

    def test_more_bits_less_error(self):
        w = _weight()
        errors = [
            quantization_mse(w, fake_quantize(w, bits)) for bits in (2, 3, 4, 8)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.zeros(8, dtype=np.float32), bits=4)


def _forward_all(batches):
    """A calibration ``run_fn``: one forward per batch."""

    def run_fn(model):
        for batch in batches:
            model(batch.tokens)

    return run_fn


def _tiny_lm(tokenizer):
    model = nn.Transformer(
        vocab_size=tokenizer.vocab_size, dim=16, n_layers=1, n_heads=2,
        hidden_dim=32, max_seq_len=16,
    )
    model.to("gpu")
    return model


def _calibrated_layer(in_f=32, out_f=16, n=256, seed=0):
    """A Linear plus calibration stats from correlated inputs."""
    rng = np.random.default_rng(seed)
    layer = nn.Linear(in_f, out_f, bias=False, rng=rng)
    base = rng.standard_normal((n, 4)).astype(np.float64)
    mix = rng.standard_normal((4, in_f)).astype(np.float64)
    x = base @ mix + 0.05 * rng.standard_normal((n, in_f))
    cal = LayerCalibration(in_features=in_f)
    cal.update(x)
    return layer, cal, x.astype(np.float32)


class TestGPTQ:
    def test_gptq_beats_rtn_on_correlated_inputs(self):
        """Error compensation must reduce *output* error vs plain rounding."""
        layer, cal, x = _calibrated_layer()
        w = layer.weight.numpy()
        gptq_w = gptq_quantize_weight(w, cal.hessian, bits=3, group_size=None)
        rtn_w = fake_quantize(w, 3, symmetric=False, per_channel=True)
        ref = x @ w.T
        gptq_err = np.mean((x @ gptq_w.T - ref) ** 2)
        rtn_err = np.mean((x @ rtn_w.T - ref) ** 2)
        assert gptq_err < rtn_err

    def test_gptq_output_on_grid_per_group(self):
        layer, cal, _ = _calibrated_layer()
        w = layer.weight.numpy()
        gptq_w = gptq_quantize_weight(w, cal.hessian, bits=3, group_size=16)
        # Each row x group has at most 2^3 distinct values.
        for row in gptq_w:
            for g in range(0, 32, 16):
                assert len(np.unique(row[g : g + 16])) <= 8

    def test_dead_columns_handled(self):
        layer, cal, _ = _calibrated_layer()
        h = cal.hessian.copy()
        h[0, :] = 0.0
        h[:, 0] = 0.0
        out = gptq_quantize_weight(layer.weight.numpy(), h, bits=3)
        assert np.all(np.isfinite(out))
        assert np.all(out[:, 0] == 0.0)

    def test_model_level_gptq(self, world, tokenizer):
        from repro.data import corpus_batches, generate_corpus

        model = _tiny_lm(tokenizer)
        corpus = generate_corpus(world, 64, seed=5)
        batches = list(corpus_batches(corpus, tokenizer, 8, rt.GPU, seed=6))
        report = quantize(model, GPTQConfig(bits=4), run_fn=_forward_all(batches))
        assert (report.method, report.bits) == ("GPTQ", 4)
        assert len(report.layer_mse) == 8
        assert all(np.isfinite(v) for v in report.layer_mse.values())


class TestAWQ:
    def test_scale_search_reduces_output_error(self):
        layer, cal, x = _calibrated_layer(seed=3)
        w = layer.weight.numpy()
        scales, alpha, err = awq_scale_search(w, cal, bits=3, group_size=None)
        plain = fake_quantize(w, 3, symmetric=True)
        plain_err = np.mean((x @ plain.T - x @ w.T) ** 2)
        assert err <= plain_err + 1e-12
        assert scales.shape == (32,)

    def test_alpha_zero_is_identity_scaling(self):
        layer, cal, _ = _calibrated_layer()
        scales, alpha, _ = awq_scale_search(
            layer.weight.numpy(), cal, bits=3, group_size=None, alphas=(0.0,)
        )
        assert np.allclose(scales, scales[0])  # constant scaling

    def test_model_level_awq(self, world, tokenizer):
        from repro.data import corpus_batches, generate_corpus

        model = _tiny_lm(tokenizer)
        corpus = generate_corpus(world, 64, seed=7)
        batches = list(corpus_batches(corpus, tokenizer, 8, rt.GPU, seed=8))
        report = quantize(model, AWQConfig(bits=4), run_fn=_forward_all(batches))
        assert len(report.layer_mse) == 8


class TestRTN:
    def test_quantizes_in_place(self):
        model = nn.Transformer(
            vocab_size=20, dim=16, n_layers=1, n_heads=2, hidden_dim=32
        )
        before = model.lm_head.weight.numpy().copy()
        report = quantize(model, RTNConfig(bits=3, per_channel=False))
        after = model.lm_head.weight.numpy()
        assert not np.array_equal(before, after)
        assert len(np.unique(after)) <= 2**3 * 2  # per-tensor symmetric grid
        assert len(report.layer_mse) == 8

    def test_skip_names(self):
        model = nn.Transformer(
            vocab_size=20, dim=16, n_layers=1, n_heads=2, hidden_dim=32
        )
        before = model.lm_head.weight.numpy().copy()
        quantize(model, RTNConfig(bits=3), skip_names=("lm_head",))
        assert np.array_equal(before, model.lm_head.weight.numpy())

    def test_no_linears_raises(self):
        with pytest.raises(ValueError):
            quantize(nn.RMSNorm(4), RTNConfig(bits=3))


class TestLLMQAT:
    def test_ste_gradient_is_identity(self):
        w = rt.Tensor.from_numpy(_weight(), device="gpu", requires_grad=True)
        out = FakeQuantSTE.apply(w, 4)
        out.sum().backward()
        assert np.allclose(w.grad.numpy(), np.ones_like(w.numpy()))

    def test_forward_projects_to_grid(self):
        w = rt.Tensor.from_numpy(_weight(), device="gpu")
        out = FakeQuantSTE.apply(w, 3)
        for row in out.numpy():
            assert len(np.unique(row)) <= 2**3

    def test_qat_wraps_linears(self):
        model = nn.Transformer(
            vocab_size=20, dim=16, n_layers=1, n_heads=2, hidden_dim=32
        )
        seen = {}

        def run_fn(m):
            seen["wrapped"] = [
                name for name, mod in m.named_modules() if isinstance(mod, QATLinear)
            ]
            seen["shape"] = m(rt.tensor(np.array([[1, 2, 3]]))).shape

        report = quantize(model, QATConfig(bits=4), run_fn=run_fn)
        assert len(seen["wrapped"]) == 8 == len(report.layer_mse)
        assert seen["shape"] == (1, 3, 20)

    def test_qat_training_reduces_quantized_loss(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(8, 8, rng=rng)
        # Direct QAT on a single layer:
        wrapped = QATLinear(layer, bits=3)
        x = rt.tensor(rng.standard_normal((16, 8)).astype(np.float32))
        target = rt.tensor(rng.standard_normal((16, 8)).astype(np.float32))
        losses = []
        for _ in range(40):
            diff = wrapped(x) - target
            loss = (diff * diff).sum()
            loss.backward()
            for p in layer.parameters():
                p.copy_(p._compute() - 0.002 * p.grad._compute())
                p.grad = None
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.8

    def test_freeze_bakes_weights(self):
        model = nn.Transformer(
            vocab_size=20, dim=16, n_layers=1, n_heads=2, hidden_dim=32
        )
        quantize(model, QATConfig(bits=3), run_fn=lambda m: None)
        wrapped = [m for _, m in model.named_modules() if isinstance(m, QATLinear)]
        assert len(wrapped) == 8
        for qat in wrapped:
            w = qat.inner.weight.numpy()
            for row in w:
                assert len(np.unique(row)) <= 2**3


class TestCalibration:
    def test_hessian_accumulates(self):
        cal = LayerCalibration(in_features=4)
        x = np.eye(4)
        cal.update(x)
        assert np.allclose(cal.hessian, 2 * np.eye(4))
        cal.update(x)
        assert np.allclose(cal.hessian, 4 * np.eye(4))

    def test_abs_mean_running_average(self):
        cal = LayerCalibration(in_features=2)
        cal.update(np.array([[1.0, -2.0]]))
        cal.update(np.array([[3.0, 0.0]]))
        assert np.allclose(cal.abs_mean, [2.0, 1.0])

    def test_sample_budget(self):
        cal = LayerCalibration(in_features=2, max_samples=10)
        cal.update(np.ones((8, 2)))
        cal.update(np.ones((8, 2)))
        assert cal.stacked_samples().shape[0] == 10

    def test_record_linear_inputs_restores_forward(self, world, tokenizer):
        from repro.data import corpus_batches, generate_corpus

        model = _tiny_lm(tokenizer)
        original_forward = model.lm_head.forward
        corpus = generate_corpus(world, 32, seed=11)
        batches = list(corpus_batches(corpus, tokenizer, 8, rt.GPU, seed=12))
        with record_linear_inputs(model) as records:
            _forward_all(batches)(model)
        assert model.lm_head.forward == original_forward
        assert "lm_head" in records
        assert records["lm_head"].n_samples > 0


    # name -> blake2b-8 of the record's Hessian, |x| mean, samples and
    # sample count, recorded while ``gate_proj`` ran a forward of its own.
    PINNED_GATE_RECORDS = {
        "layers.0.mlp.gate_proj": "13f8548c1354ef21",
        "layers.1.mlp.gate_proj": "2ffdd7a2e86eb106",
    }

    def test_a_gate_records_the_input_its_up_projection_reads(self):
        """``gate_proj`` runs no forward: ``up_proj`` reads its weight, and
        the recorder records the shared input for both."""
        import hashlib

        from repro.llm import MICRO, build_model
        from repro.tensor.autograd import no_grad

        model = build_model(MICRO, vocab_size=40, seed=0)
        tokens = rt.Tensor.from_numpy(np.random.default_rng(3).integers(0, 40, (2, 9)))
        with record_linear_inputs(model) as records, no_grad():
            model(tokens)
        digests = {}
        for name, record in records.items():
            if name.endswith("gate_proj"):
                up = records[name.replace("gate_proj", "up_proj")]
                assert record.hessian.tobytes() == up.hessian.tobytes()
                digest = hashlib.blake2b(digest_size=8)
                for array in (record.hessian, record.abs_mean, record.stacked_samples()):
                    digest.update(array.tobytes())
                digest.update(str(record.n_samples).encode())
                digests[name] = digest.hexdigest()
        assert digests == self.PINNED_GATE_RECORDS


class TestQuantizeFrontEnd:
    @pytest.mark.parametrize(
        "config",
        [GPTQConfig(), AWQConfig(), QATConfig(), DKMConfig()],
        ids=lambda c: type(c).__name__,
    )
    def test_run_fn_required_but_for_rtn(self, config):
        model = nn.Transformer(vocab_size=20, dim=16, n_layers=1, n_heads=2, hidden_dim=32)
        with pytest.raises(ValueError, match="needs a run_fn"):
            quantize(model, config)

    def test_edkm_is_compress_then_run_fn(self, tokenizer):
        model = _tiny_lm(tokenizer)
        tokens = rt.tensor(np.array([[1, 2, 3, 4]])).to(rt.GPU)
        report = quantize(
            model, DKMConfig(bits=3, iters=2), run_fn=lambda m: m(tokens),
            skip_names=("lm_head",),
        )
        clustered = [n for n, m in model.named_modules() if isinstance(m, ClusteredLinear)]
        assert clustered == list(report.layer_mse) and len(clustered) == 7
        assert (report.method, report.bits) == ("DKM", 3)
        assert all(np.isfinite(v) and v >= 0 for v in report.layer_mse.values())

    def test_qat_honours_skip_names(self):
        model = nn.Transformer(vocab_size=20, dim=16, n_layers=1, n_heads=2, hidden_dim=32)
        report = quantize(model, QATConfig(bits=4), run_fn=lambda m: None, skip_names=("lm_head",))
        assert isinstance(model.lm_head, nn.Linear) and "lm_head" not in report.layer_mse
        assert len(report.layer_mse) == 7

    def test_one_walk_in_named_modules_order(self):
        """``named_linears`` yields the Linears in ``named_modules`` order, and
        ``ModelCompressor.wrapped`` keeps that order (placement and sweep
        merges depend on it)."""

        def build():
            return nn.Transformer(vocab_size=20, dim=16, n_layers=2, n_heads=2, hidden_dim=32)

        model = build()
        reference = [n for n, m in model.named_modules() if isinstance(m, nn.Linear)]
        assert [name for name, *_ in nn.named_linears(model)] == reference
        skip = ("layers.0.attn", "lm_head")
        kept = [n for n in reference if not n.startswith(skip)]
        assert [name for name, *_ in nn.named_linears(model, skip)] == kept
        compressor = ModelCompressor(DKMConfig(bits=3), skip_names=skip)
        compressor.compress(build())
        assert list(compressor.wrapped) == kept
