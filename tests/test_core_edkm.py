"""Tests for the fused eDKM op: equivalence with dense DKM and footprint."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
import repro.tensor as rt
from repro.core import DKMConfig, EDKMConfig
from repro.core.compressor import ClusteredLinear
from repro.core.dkm import DKMClusterer, default_temperature
from repro.core.edkm import EDKMClusterAssign, cluster, edkm_cluster
from repro.core.offload import SavedTensorPipeline
from repro.core.uniquify import reconstruct_attention_map
from repro.tensor.autograd import Context
from repro.tensor.dtype import decode_pattern16

from tests.oracles import edkm_backward_uk


def _weights_np(n=800, seed=0):
    return (np.random.default_rng(seed).standard_normal(n) * 0.05).astype(np.float32)


def _tensor(values, requires_grad=True, dtype="bfloat16"):
    return rt.Tensor.from_numpy(
        values, dtype=dtype, device="gpu", requires_grad=requires_grad
    )


def _upstream(shape, grad_seed=1):
    return np.random.default_rng(grad_seed).standard_normal(shape).astype(np.float32)


def _run(path, values, config=None):
    """Run dense or fused clustering; return (output, weight grad)."""
    config = config or DKMConfig(bits=3, iters=4)
    w = _tensor(values)
    clusterer = DKMClusterer(config)
    if path == "dense":
        out = clusterer.cluster_dense(w)
    else:
        out = edkm_cluster(w, clusterer)
    out.backward(_upstream(out.shape))
    return out.numpy(), w.grad.numpy()


def _map_rebuild_oracle(table, index_list, w_unique, c, g, tau):
    """The paper's backward, kept as a reference: rebuild the ``|W| x |C|``
    map from table + index list, then the dense chain rule, all in float64.

    With ``z_ij = -(w_i - c_j)^2 / tau``, ``A = softmax_j(z)`` and
    ``out_i = sum_j A_ij c_j``: ``dL/dA_ij = g_i c_j``,
    ``dL/dz_ij = A_ij (g_i c_j - sum_l A_il g_i c_l)``,
    ``dL/dw_i = sum_j dL/dz_ij (-2 (w_i - c_j) / tau)`` and
    ``dL/dc_j = sum_i A_ij g_i + sum_i dL/dz_ij (2 (w_i - c_j) / tau)``.
    """
    attention = reconstruct_attention_map(table, index_list).astype(np.float64)
    c = c.astype(np.float64)
    g = g.reshape(-1).astype(np.float64)
    diff = w_unique.astype(np.float64)[index_list][:, None] - c[None, :]  # (N, k)
    grad_attention = g[:, None] * c[None, :]
    inner = (attention * grad_attention).sum(axis=1, keepdims=True)
    grad_logits = attention * (grad_attention - inner)
    grad_w = (grad_logits * (-2.0 * diff / tau)).sum(axis=1)
    grad_c = attention.T @ g + (grad_logits * (2.0 * diff / tau)).sum(axis=0)
    return grad_w, grad_c


def _unrounded_leaf(values, dtype):
    """A float32 leaf cast to the 16-bit training dtype.

    The weight gradient reaches the leaf in float32; a 16-bit leaf would
    round it to three digits and hide what the tolerances below resolve.
    """
    leaf = rt.Tensor.from_numpy(values, dtype="float32", device="gpu", requires_grad=True)
    return leaf, leaf.cast(rt.get_dtype(dtype))


def _dense_grad(values, config, dtype="bfloat16"):
    leaf, w = _unrounded_leaf(values, dtype)
    out = DKMClusterer(config).cluster_dense(w)
    out.backward(_upstream(out.shape))
    return leaf.grad.numpy().reshape(-1)


def _fused_grads_and_oracle(values, config, dtype="bfloat16"):
    """``edkm_cluster`` with centroids that want a gradient too.

    Returns ``(grad_w, grad_c)`` from the op and from the oracle evaluated on
    the op's own saved set (table, index list, patterns, centroids).
    """
    leaf, w = _unrounded_leaf(values, dtype)
    clusterer = DKMClusterer(config)
    with rt.no_grad():
        state = clusterer.refine(w, cache_table=True)
    c = rt.Tensor.from_numpy(state.centroids, device="gpu", requires_grad=True)
    saved = []
    with rt.saved_tensors_hooks(lambda t: saved.append(t) or t, lambda t: t):
        out = EDKMClusterAssign.apply(w, c, state.temperature, cache=clusterer.fastpath)
    table_t, index_t, patterns_t, _ = saved
    upstream = _upstream(out.shape)
    out.backward(upstream)
    oracle = _map_rebuild_oracle(
        table_t.numpy(),
        index_t.numpy().astype(np.int64),
        decode_pattern16(patterns_t.numpy(), w.dtype),
        state.centroids,
        upstream,
        state.temperature,
    )
    return (leaf.grad.numpy().reshape(-1), c.grad.numpy()), oracle


def _assert_within(actual, reference, rel, floor=0.0):
    bound = rel * max(float(np.abs(reference).max()), floor)
    assert float(np.abs(actual - reference).max()) <= bound


class TestEquivalence:
    def test_outputs_match_dense(self):
        values = _weights_np()
        out_dense, _ = _run("dense", values)
        out_fused, _ = _run("fused", values)
        assert np.allclose(out_dense, out_fused, atol=1e-6)

    def test_gradients_match_dense(self):
        values = _weights_np()
        _, grad_dense = _run("dense", values)
        _, grad_fused = _run("fused", values)
        scale = np.abs(grad_dense).max()
        assert np.allclose(grad_fused, grad_dense, atol=1e-4 * max(scale, 1))

    def test_backward_matches_float64_map_rebuild_oracle(self):
        (grad_w, grad_c), (oracle_w, oracle_c) = _fused_grads_and_oracle(
            _weights_np(), DKMConfig(bits=3, iters=4)
        )
        _assert_within(grad_w, oracle_w, 1e-5)
        _assert_within(grad_c, oracle_c, 1e-5)

    def test_equivalence_across_bit_widths(self):
        values = _weights_np(400)
        for bits in (2, 3, 4):
            config = DKMConfig(bits=bits, iters=3)
            out_dense, grad_dense = _run("dense", values, config)
            out_fused, grad_fused = _run("fused", values, config)
            assert np.allclose(out_dense, out_fused, atol=1e-6), bits
            scale = max(np.abs(grad_dense).max(), 1)
            assert np.allclose(grad_fused, grad_dense, atol=1e-4 * scale), bits

    def test_equivalence_with_fp16_weights(self):
        values = _weights_np(400)
        config = DKMConfig(bits=3, iters=3, weight_dtype=rt.float16)
        w_dense = _tensor(values, dtype="float16")
        w_fused = _tensor(values, dtype="float16")
        cl_a, cl_b = DKMClusterer(config), DKMClusterer(config)
        out_dense = cl_a.cluster_dense(w_dense)
        out_fused = edkm_cluster(w_fused, cl_b)
        assert np.allclose(
            out_dense.numpy().astype(np.float32),
            out_fused.numpy().astype(np.float32),
            atol=1e-3,
        )

    def test_2d_weights(self):
        values = _weights_np(96).reshape(12, 8)
        out_dense, grad_dense = _run("dense", values)
        out_fused, grad_fused = _run("fused", values)
        assert out_fused.shape == (12, 8)
        assert np.allclose(out_dense, out_fused, atol=1e-6)
        assert np.allclose(grad_fused, grad_dense, atol=1e-4)


class TestFusedOpMechanics:
    def test_requires_16bit_dtype(self):
        w = rt.Tensor.from_numpy(
            _weights_np(32), dtype="float32", device="gpu", requires_grad=True
        )
        c = rt.Tensor.from_numpy(np.linspace(-0.1, 0.1, 8).astype(np.float32), device="gpu")
        with pytest.raises(TypeError, match="16-bit"):
            EDKMClusterAssign.apply(w, c, 1e-3)

    def test_saved_tensors_are_factored_representation(self):
        """The fused op saves table + index + patterns + centroids, not the map."""
        packed = []

        def pack(t):
            packed.append((t.shape, t.dtype.name))
            return t

        w = _tensor(_weights_np(1000))
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=2))
        with rt.saved_tensors_hooks(pack, lambda h: h):
            edkm_cluster(w, clusterer)
        shapes = {shape for shape, _ in packed}
        dtypes = {name for _, name in packed}
        # Index list of N entries, saved as uint16.
        assert (1000,) in shapes
        assert "uint16" in dtypes
        # No N x k tensor was saved.
        assert not any(s == (1000, 8) for s in shapes)

    def test_index_list_uses_uint16(self):
        w = _tensor(_weights_np(500))
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=2))
        packed = []
        with rt.saved_tensors_hooks(lambda t: packed.append(t) or t, lambda h: h):
            edkm_cluster(w, clusterer)
        index_tensors = [t for t in packed if t.dtype is rt.uint16 and t.shape == (500,)]
        assert len(index_tensors) == 1

    def test_no_centroid_grad_when_not_required(self):
        w = _tensor(_weights_np(300))
        c = rt.Tensor.from_numpy(
            np.linspace(-0.1, 0.1, 8).astype(np.float32), device="gpu"
        )
        out = EDKMClusterAssign.apply(w, c, 1e-3)
        out.sum().backward()
        assert w.grad is not None
        assert c.grad is None

    def test_centroid_grad_when_required(self):
        w = _tensor(_weights_np(300))
        c = rt.Tensor.from_numpy(
            np.linspace(-0.1, 0.1, 8).astype(np.float32),
            device="gpu",
            requires_grad=True,
        )
        out = EDKMClusterAssign.apply(w, c, 1e-3)
        out.sum().backward()
        assert c.grad is not None
        assert c.grad.shape == (8,)

    def test_centroid_grad_matches_dense_composition(self):
        """Fused dC must equal the dense composed graph's dC."""
        values = _weights_np(200)
        c_np = np.linspace(-0.1, 0.1, 8).astype(np.float32)
        tau = 1e-3

        # Dense: compose from primitives with c requiring grad.
        w_d = _tensor(values, requires_grad=False)
        c_d = rt.Tensor.from_numpy(c_np, device="gpu", requires_grad=True)
        flat = w_d.reshape(-1)
        diff = flat.unsqueeze(1) - c_d.unsqueeze(0)
        attention = ((diff * diff) * (-1.0 / tau)).softmax(dim=1)
        out_dense = (attention @ c_d.unsqueeze(1)).reshape(w_d.shape)
        out_dense.sum().backward()

        # Fused.
        w_f = _tensor(values, requires_grad=False)
        c_f = rt.Tensor.from_numpy(c_np, device="gpu", requires_grad=True)
        out_fused = EDKMClusterAssign.apply(w_f, c_f, tau)
        out_fused.sum().backward()

        scale = max(np.abs(c_d.grad.numpy()).max(), 1.0)
        assert np.allclose(
            c_f.grad.numpy(), c_d.grad.numpy(), atol=5e-3 * scale, rtol=1e-2
        )

    def test_dispatch_helper(self):
        values = _weights_np(100)
        w = _tensor(values)
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=2))
        out_unique = cluster(w, clusterer, uniquify_enabled=True)
        w2 = _tensor(values)
        clusterer2 = DKMClusterer(DKMConfig(bits=3, iters=2))
        out_dense = cluster(w2, clusterer2, uniquify_enabled=False)
        assert np.allclose(out_unique.numpy(), out_dense.numpy(), atol=1e-6)


# Weight families the unique-space backward must survive: smooth (u close to
# N for small N), duplicate-heavy (the paper's regime), a single pattern
# (u = 1) and fewer patterns than centroids (u < k).
_WEIGHT_KINDS = ("normal", "duplicate_heavy", "all_equal", "fewer_than_k")


def _property_weights(kind, n, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return (rng.standard_normal(n) * 0.05).astype(np.float32)
    pool_size = {"duplicate_heavy": 12, "all_equal": 1, "fewer_than_k": max(k - 1, 1)}[kind]
    pool = (rng.standard_normal(pool_size) * 0.05).astype(np.float32)
    return rng.choice(pool, size=n)


class TestBackwardProperty:
    """The gradient contract: ``grad_w`` / ``grad_c`` within
    ``1e-5 * max|grad|`` of the float64 map-rebuild oracle at every
    temperature, and ``grad_w`` within ``1e-4 * max(|grad|, 1)`` of
    ``cluster_dense`` wherever float32 lets the dense path resolve that."""

    @given(
        n=st.integers(1, 1500),
        bits=st.sampled_from((2, 3, 4)),
        dtype=st.sampled_from(("bfloat16", "float16")),
        # Multiplier on the adaptive temperature: 10 is soft (rows near
        # uniform), 1e-3 near-hard (rows one-hot off the cell boundaries).
        log_temperature_scale=st.floats(-3.0, 1.0),
        kind=st.sampled_from(_WEIGHT_KINDS),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_grads_match_oracle_and_dense(
        self, n, bits, dtype, log_temperature_scale, kind, seed
    ):
        values = _property_weights(kind, n, 2**bits, seed)
        weight_dtype = rt.get_dtype(dtype)
        adaptive = default_temperature(weight_dtype.project(values), 2**bits)
        config = DKMConfig(
            bits=bits,
            iters=3,
            weight_dtype=weight_dtype,
            temperature=adaptive * 10.0**log_temperature_scale,
        )
        (grad_w, grad_c), (oracle_w, oracle_c) = _fused_grads_and_oracle(
            values, config, dtype
        )
        # Below 1e-3 a gradient is float64 rounding of ~1/tau-sized terms, in
        # the oracle as much as in the op.
        _assert_within(grad_w, oracle_w, 1e-5, floor=1e-3)
        _assert_within(grad_c, oracle_c, 1e-5, floor=1e-3)
        # The dense composition is float32 end to end: its softmax rows sum
        # to 1 +- 6e-8, an error the chain rule multiplies by w * out * 2 / tau.
        # Past a tenth of the adaptive temperature that noise (measured up to
        # 8e-4 at scale 1e-3, against 1e-7 between op and oracle) outgrows
        # the tolerance, so the dense comparison stops there.
        if log_temperature_scale >= -1.0:
            _assert_within(grad_w, _dense_grad(values, config, dtype), 1e-4, floor=1.0)


class TestBackwardEqualsUkOracle:
    """The ``(k, u)`` backward's ``grad_w`` and ``grad_c`` are the bytes of the
    ``(u, k)`` formulation it replaced, for every ``needs_input_grad``."""

    _NEEDS = [(True, True), (True, False), (False, True), (False, False)]

    @staticmethod
    def _recorded_ctx(u, k, dtype, regime, seed):
        """A context recorded by ``forward`` over exactly ``u`` unique weights.

        ``regime`` picks the codebook and temperature: ``"soft"`` and
        ``"near-hard"`` draw the centroids from the weights (temperature at
        1 and 1e-3 times the adaptive one); ``"narrow"`` puts them within
        ~1e-10 of zero, so each of ``rho``'s terms is some 2^30 times the
        sum, and the order of the sum over ``j`` reaches float32.
        """
        rng = np.random.default_rng(seed)
        weight_dtype = rt.get_dtype(dtype)
        # Magnitudes spread over 2^-24 .. 2^-2: some 7 000 distinct bf16 values.
        spread = rng.standard_normal(100_000) * np.exp2(rng.uniform(-24, -2, 100_000))
        pool = np.unique(weight_dtype.project(spread.astype(np.float32)))
        present = rng.choice(pool, size=u, replace=False)
        values = rng.permutation(np.concatenate([present, rng.choice(present, size=700)]))
        if regime == "narrow":
            centroids = np.unique((rng.standard_normal(4 * k) * 1e-10).astype(np.float32))
            centroids = np.sort(rng.choice(centroids, size=k, replace=False))
        else:
            centroids = np.sort(rng.choice(pool, size=k, replace=False))
        temperature = default_temperature(values, k) * (1e-3 if regime == "near-hard" else 1.0)
        w = rt.Tensor.from_numpy(values, dtype=dtype, device="gpu", requires_grad=True)
        c = rt.Tensor.from_numpy(centroids, device="gpu", requires_grad=True)
        ctx = Context((True, True))
        EDKMClusterAssign.forward(ctx, w, c, temperature)
        assert ctx.saved_tensors[2].numpy().size == u
        return ctx, _upstream(values.shape, grad_seed=seed)

    @pytest.mark.parametrize("regime", ["soft", "near-hard", "narrow"])
    @pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
    @pytest.mark.parametrize("k", [2, 8, 16, 256])
    @pytest.mark.parametrize("u", [1, 2, 7, 8, 9, 127, 128, 129, 1000, 5003])
    def test_grads_bytes_equal_oracle(self, u, k, dtype, regime):
        ctx, grad = self._recorded_ctx(u, k, dtype, regime, seed=u * 1000 + k)
        for needs in self._NEEDS:
            ctx.needs_input_grad = needs
            got = EDKMClusterAssign.backward(ctx, grad)
            want = edkm_backward_uk(ctx, grad)
            for name, got_g, want_g, needed in zip("wc", got, want, needs):
                if not needed:
                    assert got_g is None and want_g is None, (name, needs)
                    continue
                assert got_g.dtype == want_g.dtype == np.float32, (name, needs)
                assert got_g.shape == want_g.shape, (name, needs)
                assert got_g.tobytes() == want_g.tobytes(), (name, needs)


class TestBackwardFootprint:
    def test_backward_peak_stays_below_one_dense_buffer(self):
        """A dense rebuild would allocate several ``N * k * 4``-byte buffers;
        the unique-space backward's largest temporaries are ``O(N)``."""
        n, k = 1 << 18, 8
        w = _tensor(_weights_np(n))
        out = edkm_cluster(w, DKMClusterer(DKMConfig(bits=3, iters=2)))
        grad = _upstream(out.shape)
        tracemalloc.start()
        try:
            out.backward(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.grad is not None
        assert peak < 0.75 * n * k * 4


class TestSavedSetOnlyWhenRecorded:
    """No autograd node, no saved set: nothing reaches the offload pipeline."""

    def _packed_by_forward(self, layer):
        layer.to("gpu")
        for param in layer.parameters():
            param.requires_grad = False
        assert layer.training
        x = rt.Tensor.from_numpy(_upstream((4, 32)), device="gpu")
        pipeline = SavedTensorPipeline(EDKMConfig())
        with pipeline.step():
            out = layer(x)
        assert out.grad_fn is None
        return pipeline.stats.tensors_packed

    def test_frozen_weight_train_forward_packs_nothing(self):
        def linear():
            return nn.Linear(32, 16, rng=np.random.default_rng(0))

        # The matmul and bias add save their own operands either way; the
        # eDKM op must add nothing on top of the plain Linear's count.
        clustered = ClusteredLinear(linear(), DKMConfig(bits=3, iters=2))
        assert self._packed_by_forward(clustered) == self._packed_by_forward(linear())

    def test_no_grad_forward_packs_nothing(self):
        w = _tensor(_weights_np(500))
        pipeline = SavedTensorPipeline(EDKMConfig())
        with pipeline.step(), rt.no_grad():
            out = edkm_cluster(w, DKMClusterer(DKMConfig(bits=3, iters=2)))
        assert out.grad_fn is None
        assert pipeline.stats.tensors_packed == 0
