"""Edge cases and failure-injection tests across the engine and core."""

import gc

import numpy as np
import pytest

import repro.tensor as rt
from repro.core import DKMConfig, EDKMConfig, SavedTensorPipeline
from repro.core.dkm import DKMClusterer
from repro.core.edkm import edkm_cluster
from repro.distributed import LearnerGroup, shard_rows, all_gather
from repro.memory import profile_memory
from repro.tensor import ops


class TestTensorEdgeCases:
    def test_empty_slice(self):
        t = rt.randn(4)
        s = t[2:2]
        assert s.shape == (0,)
        assert s.numel == 0

    def test_zero_dim_after_full_reduce_of_1d(self):
        t = rt.tensor([3.0])
        assert t.sum().shape == ()
        assert t.sum().item() == pytest.approx(3.0)

    def test_scalar_tensor_arithmetic(self):
        a = rt.tensor(5.0)
        assert a.shape == ()
        assert (a + 1.0).item() == 6.0

    def test_single_element_softmax(self):
        out = ops.softmax(rt.tensor([[7.0]]), dim=1)
        assert out.numpy()[0, 0] == pytest.approx(1.0)

    def test_expand_then_reduce_grad(self):
        a = rt.tensor([[2.0]], requires_grad=True)
        a.expand(5, 3).sum().backward()
        assert a.grad.numpy()[0, 0] == pytest.approx(15.0)

    def test_chain_of_casts(self):
        t = rt.randn(16)
        roundtrip = t.bfloat16().float().bfloat16().float()
        assert np.array_equal(roundtrip.numpy(), t.bfloat16().float().numpy())

    def test_deeply_nested_views_resolve(self):
        t = rt.randn(2, 3, 4)
        v = t.view(-1)
        for _ in range(20):
            v = v.view(24)
        assert v.shares_storage_with(t)

    def test_slice_of_slice(self):
        t = rt.randn(10)
        s = t[2:9][1:4]
        assert np.array_equal(s.numpy(), t.numpy()[2:9][1:4])
        assert s.shares_storage_with(t)

    def test_transpose_of_expand(self):
        t = rt.randn(1, 4)
        e = t.expand(3, 4).transpose(0, 1)
        assert e.shape == (4, 3)
        assert np.array_equal(e.numpy(), np.broadcast_to(t.numpy(), (3, 4)).T)

    def test_view_after_gc_of_base(self):
        t = rt.randn(4, 4)
        storage = t.storage
        v = t.view(-1)
        del t
        gc.collect()
        # The view keeps the storage alive.
        assert v.storage is storage
        assert v.numel == 16

    def test_bool_tensor_roundtrip(self):
        t = rt.tensor(np.array([True, False, True]))
        assert t.dtype is rt.bool_
        assert t.numpy().tolist() == [True, False, True]

    def test_int_tensor_cast_to_float_gradless(self):
        idx = rt.tensor(np.array([1, 2]))
        f = idx.cast("float32")
        assert f.dtype is rt.float32
        assert not f.requires_grad


class TestDKMDegenerateInputs:
    def test_constant_weights(self):
        """All-equal weights: one unique value, clustering must not NaN."""
        w = rt.Tensor.from_numpy(
            np.full(100, 0.125, dtype=np.float32),
            dtype="bfloat16", device="gpu", requires_grad=True,
        )
        clusterer = DKMClusterer(DKMConfig(bits=2, iters=3))
        out = edkm_cluster(w, clusterer)
        assert np.all(np.isfinite(out.numpy()))
        assert np.allclose(out.numpy(), 0.125, atol=1e-3)
        (out * out).sum().backward()
        assert np.all(np.isfinite(w.grad.numpy()))

    def test_two_distinct_values(self):
        values = np.where(np.arange(64) % 2 == 0, 0.5, -0.5).astype(np.float32)
        w = rt.Tensor.from_numpy(
            values, dtype="bfloat16", device="gpu", requires_grad=True
        )
        clusterer = DKMClusterer(DKMConfig(bits=2, iters=10))
        out = edkm_cluster(w, clusterer)
        # Two natural clusters; reconstruction should be near-exact.
        assert np.allclose(out.numpy(), values, atol=1e-2)

    def test_tiny_tensor(self):
        w = rt.Tensor.from_numpy(
            np.array([0.1, -0.2, 0.3], dtype=np.float32),
            dtype="bfloat16", device="gpu", requires_grad=True,
        )
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=2))
        out = edkm_cluster(w, clusterer)
        assert out.shape == (3,)

    def test_extreme_magnitudes(self):
        values = (np.random.default_rng(0).standard_normal(200) * 100).astype(
            np.float32
        )
        w = rt.Tensor.from_numpy(
            values, dtype="bfloat16", device="gpu", requires_grad=True
        )
        clusterer = DKMClusterer(DKMConfig(bits=3, iters=5))
        out = clusterer.cluster_dense(w)
        assert np.all(np.isfinite(out.numpy()))

    def test_dense_and_fused_agree_on_degenerate_input(self):
        values = np.zeros(50, dtype=np.float32)
        w_a = rt.Tensor.from_numpy(values, dtype="bfloat16", device="gpu",
                                   requires_grad=True)
        w_b = rt.Tensor.from_numpy(values, dtype="bfloat16", device="gpu",
                                   requires_grad=True)
        out_a = DKMClusterer(DKMConfig(bits=2, iters=2)).cluster_dense(w_a)
        out_b = edkm_cluster(w_b, DKMClusterer(DKMConfig(bits=2, iters=2)))
        assert np.allclose(out_a.numpy(), out_b.numpy(), atol=1e-6)


class TestPipelineEdgeCases:
    def test_backward_without_offloadable_tensors(self):
        pipeline = SavedTensorPipeline(EDKMConfig.baseline_offload())
        x = rt.tensor([1.0, 2.0], requires_grad=True)  # CPU tensor
        with pipeline.step():
            (x * x).sum().backward()
        assert x.grad is not None

    def test_nested_steps_forbidden_state_is_clean(self):
        """Sequential steps each start with a clean registry."""
        pipeline = SavedTensorPipeline(
            EDKMConfig(marshal=True, uniquify=False, shard=False, group=None)
        )
        x = rt.randn(8, 8, device="gpu", requires_grad=True)
        with pipeline.step():
            (x * x).sum().backward()
        first_avoided = pipeline.stats.copies_avoided
        y = rt.randn(8, 8, device="gpu", requires_grad=True)
        with pipeline.step():
            (y * y).sum().backward()
        # Second step also gets exactly one dedup hit (same structure).
        assert pipeline.stats.copies_avoided == 2 * first_avoided

    def test_forward_only_step_no_backward(self):
        """Offloaded saved tensors are released when the graph dies."""
        pipeline = SavedTensorPipeline(EDKMConfig.baseline_offload())
        cpu = rt.CPU
        with profile_memory([cpu.tracker]) as prof:
            x = rt.randn(16, 16, device="gpu", requires_grad=True)
            with pipeline.step():
                out = (x * x).sum()
            del out
            gc.collect()
        assert prof.retained_delta("cpu") == 0

    def test_exception_inside_step_restores_hooks(self):
        pipeline = SavedTensorPipeline(EDKMConfig.baseline_offload())
        with pytest.raises(RuntimeError):
            with pipeline.step():
                raise RuntimeError("boom")
        # Hooks must be uninstalled: saving tensors copies nothing now.
        x = rt.randn(4, 4, device="gpu", requires_grad=True)
        before = pipeline.stats.copies_made
        (x * x).sum().backward()
        assert pipeline.stats.copies_made == before


class TestDistributedEdgeCases:
    def test_more_learners_than_rows(self):
        group = LearnerGroup(8)
        t = rt.tensor(np.arange(3, dtype=np.float32), device="gpu")
        sharded = shard_rows(t, group)
        sizes = [view.shape[0] for view in sharded.shard_views()]
        assert sum(sizes) == 3
        assert max(sizes) == 1
        rebuilt = all_gather(sharded, rt.GPU)
        assert np.array_equal(rebuilt.numpy(), t.numpy())

    def test_single_row(self):
        group = LearnerGroup(4)
        t = rt.tensor(np.array([7.0], dtype=np.float32))
        sharded = shard_rows(t, group)
        rebuilt = all_gather(sharded, rt.CPU)
        assert rebuilt.numpy()[0] == 7.0

    def test_uint16_shard_dtype_preserved(self):
        group = LearnerGroup(2)
        t = rt.Tensor.from_numpy(
            np.arange(10, dtype=np.uint16), dtype="uint16", device="gpu"
        )
        sharded = shard_rows(t, group)
        assert sharded.dtype is rt.uint16
        rebuilt = all_gather(sharded, rt.GPU)
        assert rebuilt.dtype is rt.uint16
        assert np.array_equal(rebuilt.numpy(), t.numpy())
