"""Tests for the saved-tensor offload pipeline (baseline, M, S)."""

import gc

import numpy as np

import repro.tensor as rt
from repro.core import DKMConfig, EDKMConfig, SavedTensorPipeline
from repro.core.dkm import DKMClusterer
from repro.core.edkm import edkm_cluster
from repro.distributed import LearnerGroup
from repro.memory import global_ledger, profile_memory
from repro.memory.tracker import global_registry
from tests import oracles


def _loss(x):
    return ((x @ x).softmax(dim=1) ** 2).sum()


def _gpu_matrix(n=24, seed=0, requires_grad=True):
    values = np.random.default_rng(seed).standard_normal((n, n)).astype(np.float32)
    return rt.Tensor.from_numpy(values, device="gpu", requires_grad=requires_grad)


class TestCorrectness:
    def test_gradients_unchanged_by_offload(self):
        """The pipeline must be semantically invisible."""
        x_plain = _gpu_matrix()
        _loss(x_plain).backward()

        x_piped = _gpu_matrix()
        pipeline = SavedTensorPipeline(EDKMConfig.baseline_offload())
        with pipeline.step():
            _loss(x_piped).backward()
        assert np.allclose(x_plain.grad.numpy(), x_piped.grad.numpy(), rtol=1e-6)

    def test_gradients_unchanged_by_marshaling(self):
        x_plain = _gpu_matrix()
        _loss(x_plain).backward()
        x_piped = _gpu_matrix()
        pipeline = SavedTensorPipeline(
            EDKMConfig(marshal=True, uniquify=False, shard=False, group=None)
        )
        with pipeline.step():
            _loss(x_piped).backward()
        assert np.allclose(x_plain.grad.numpy(), x_piped.grad.numpy(), rtol=1e-6)

    def test_gradients_unchanged_by_sharding(self):
        x_plain = _gpu_matrix()
        _loss(x_plain).backward()
        x_piped = _gpu_matrix()
        pipeline = SavedTensorPipeline(
            EDKMConfig(
                marshal=True,
                uniquify=False,
                shard=True,
                group=LearnerGroup(4),
                shard_min_bytes=64,
            )
        )
        with pipeline.step():
            _loss(x_piped).backward()
        assert np.allclose(x_plain.grad.numpy(), x_piped.grad.numpy(), rtol=1e-6)

    def test_gradients_unchanged_full_edkm_on_dkm_layer(self):
        values = (np.random.default_rng(1).standard_normal(600) * 0.05).astype(
            np.float32
        )

        def run(pipeline):
            w = rt.Tensor.from_numpy(
                values, dtype="bfloat16", device="gpu", requires_grad=True
            )
            clusterer = DKMClusterer(DKMConfig(bits=3, iters=3))
            if pipeline is None:
                (edkm_cluster(w, clusterer) ** 2).sum().backward()
            else:
                with pipeline.step():
                    (edkm_cluster(w, clusterer) ** 2).sum().backward()
            return w.grad.numpy()

        plain = run(None)
        full = run(
            SavedTensorPipeline(
                EDKMConfig(group=LearnerGroup(8), shard_min_bytes=128)
            )
        )
        assert np.allclose(plain, full, rtol=1e-5, atol=1e-8)


class TestOffloadBehavior:
    def test_disabled_pipeline_is_noop(self):
        pipeline = SavedTensorPipeline(
            EDKMConfig(
                offload=False, marshal=False, uniquify=False, shard=False, group=None
            )
        )
        cpu = rt.CPU
        with profile_memory([cpu.tracker]) as prof:
            with pipeline.step():
                _loss(_gpu_matrix()).backward()
        assert pipeline.stats.tensors_packed == 0
        assert prof.peak_delta("cpu") == 0

    def test_cpu_tensors_pass_through(self):
        x = rt.tensor(
            np.random.default_rng(0).standard_normal((8, 8)).astype(np.float32),
            requires_grad=True,
        )  # cpu tensor
        pipeline = SavedTensorPipeline(EDKMConfig.baseline_offload())
        with pipeline.step():
            _loss(x).backward()
        assert pipeline.stats.copies_made == 0

    def test_offload_frees_count_on_cpu_and_records_traffic(self):
        pipeline = SavedTensorPipeline(EDKMConfig.baseline_offload())
        cpu = rt.CPU
        with profile_memory([cpu.tracker], global_ledger()) as prof:
            with pipeline.step():
                _loss(_gpu_matrix()).backward()
        assert prof.traffic("gpu", "cpu") > 0
        assert prof.traffic("cpu", "gpu") > 0  # restored for backward
        assert pipeline.stats.copies_made > 0

    def test_marshaling_reduces_copies_and_memory(self):
        def run(marshal):
            pipeline = SavedTensorPipeline(
                EDKMConfig(marshal=marshal, uniquify=False, shard=False, group=None)
            )
            cpu = rt.CPU
            with profile_memory([cpu.tracker]) as prof:
                with pipeline.step():
                    _loss(_gpu_matrix()).backward()
            return prof.peak_delta("cpu"), pipeline.stats

        base_peak, base_stats = run(False)
        marshal_peak, marshal_stats = run(True)
        assert marshal_stats.copies_avoided > 0
        assert marshal_peak < base_peak
        assert base_stats.copies_avoided == 0

    def test_sharding_distributes_bytes(self):
        group = LearnerGroup(4)
        pipeline = SavedTensorPipeline(
            EDKMConfig(
                marshal=False,
                uniquify=False,
                shard=True,
                group=group,
                shard_min_bytes=64,
            )
        )
        peer = group.devices[1]
        cpu = rt.CPU
        with profile_memory([cpu.tracker, peer.tracker]) as prof:
            with pipeline.step():
                _loss(_gpu_matrix()).backward()
        assert pipeline.stats.tensors_sharded > 0
        assert prof.peak_delta(peer.name) > 0
        # Learner 0 holds roughly 1/4 of what a whole copy would be.
        assert prof.peak_delta("cpu") < prof.peak_delta(peer.name) * 4

    def test_shard_min_bytes_respected(self):
        group = LearnerGroup(4)
        pipeline = SavedTensorPipeline(
            EDKMConfig(
                marshal=False,
                uniquify=False,
                shard=True,
                group=group,
                shard_min_bytes=10_000_000,
            )
        )
        with pipeline.step():
            _loss(_gpu_matrix()).backward()
        assert pipeline.stats.tensors_sharded == 0
        assert pipeline.stats.copies_made > 0

    def test_registry_cleared_between_steps(self):
        pipeline = SavedTensorPipeline(
            EDKMConfig(marshal=True, uniquify=False, shard=False, group=None)
        )
        with pipeline.step():
            _loss(_gpu_matrix()).backward()
        assert len(pipeline.registry) == 0

    def test_stats_accumulate_across_steps(self):
        pipeline = SavedTensorPipeline(EDKMConfig.baseline_offload())
        for _ in range(2):
            with pipeline.step():
                _loss(_gpu_matrix()).backward()
        assert pipeline.stats.copies_made >= 4

    def test_hops_histogram_populated(self):
        pipeline = SavedTensorPipeline(
            EDKMConfig(marshal=True, uniquify=False, shard=False, group=None)
        )
        x = _gpu_matrix()
        with pipeline.step():
            # x saved twice by Mul (0 hops) and its view saved via Pow (1 hop).
            v = x.view(-1)
            ((x * x).sum() + (v**2.0).sum()).backward()
        assert pipeline.stats.hops_histogram.get(0, 0) >= 1
        assert pipeline.stats.hops_histogram.get(1, 0) >= 1


class TestUnpackCaching:
    def test_multiple_refs_share_one_restore_when_alive(self):
        """Two payloads referencing one entry reuse the same GPU copy if the
        first unpacked tensor is still alive."""
        pipeline = SavedTensorPipeline(
            EDKMConfig(marshal=True, uniquify=False, shard=False, group=None)
        )
        x = _gpu_matrix(8)
        with pipeline.step():
            y = (x * x).sum()  # Mul saves x twice -> one entry, two payloads
            node = y.grad_fn
            # Find the mul node's context through the graph.
            mul_ctx = node.edges[0][1].ctx
            saved = mul_ctx.saved_tensors  # unpack both payloads now
            assert saved[0].shares_storage_with(saved[1])
            mul_ctx.release_saved()


class TestRawByteTransfer:
    """Saved tensors cross devices as storage bytes, never as values."""

    @staticmethod
    def _bf16_step(tokenizer, world, pipeline):
        """First-step loss of a tiny bf16 LM under 3-bit eDKM wrappers."""
        from repro.core import ModelCompressor
        from repro.data import alpaca_batches, generate_alpaca
        from repro.llm import FinetuneConfig, train_causal_lm
        from repro.nn import Transformer

        model = Transformer(
            vocab_size=tokenizer.vocab_size,
            dim=32,
            n_layers=1,
            n_heads=4,
            hidden_dim=64,
            max_seq_len=64,
            dtype="bfloat16",
            seed=3,
        )
        model.to(rt.GPU)
        ModelCompressor(DKMConfig(bits=3, iters=2), pipeline.config).compress(model)
        batches = alpaca_batches(
            generate_alpaca(world, 8, seed=40), tokenizer, 8, rt.GPU, seed=41
        )
        result = train_causal_lm(
            model, batches, FinetuneConfig(lr=1e-3), pipeline=pipeline, max_steps=1
        )
        return result.losses[0]

    def test_mus_step_never_projects_and_restores_bit_identically(
        self, monkeypatch, world, tokenizer
    ):
        from repro.tensor.dtype import DType

        plain = self._bf16_step(
            tokenizer, world, SavedTensorPipeline(EDKMConfig(offload=False))
        )

        pipeline = SavedTensorPipeline(
            EDKMConfig(group=LearnerGroup(8), shard_min_bytes=512)
        )
        in_hook = [False]
        projections = []
        packed = {}  # id(payload) -> (payload kept alive, bytes it was packed from)
        restored = []
        real_project = DType.project

        def counting_project(self, array):
            if in_hook[0]:
                projections.append(self.name)
            return real_project(self, array)

        def inside_hook(hook):
            def run(arg):
                in_hook[0] = True
                try:
                    return hook(arg)
                finally:
                    in_hook[0] = False

            return run

        pack, unpack = inside_hook(pipeline._pack), inside_hook(pipeline._unpack)

        def recording_pack(tensor):
            payload = pack(tensor)
            if payload.entry is not None:
                packed[id(payload)] = (payload, tensor._np().tobytes())
            return payload

        def checking_unpack(payload):
            tensor = unpack(payload)
            if payload.entry is not None:
                assert tensor.device == rt.GPU
                restored.append(tensor._np().tobytes() == packed[id(payload)][1])
            return tensor

        monkeypatch.setattr(DType, "project", counting_project)
        pipeline._pack, pipeline._unpack = recording_pack, checking_unpack
        piped = self._bf16_step(tokenizer, world, pipeline)

        assert pipeline.stats.tensors_sharded > 0 and pipeline.stats.gathers > 0
        assert pipeline.stats.copies_made > pipeline.stats.tensors_sharded
        assert pipeline.stats.copies_avoided > 0
        assert projections == []
        assert restored and all(restored)
        assert piped == plain  # bit-identical float, not approx

    def test_one_buffer_step_matches_the_per_shard_oracle(
        self, monkeypatch, world, tokenizer
    ):
        """One M+U+S step over the one-buffer collectives and over the
        per-shard ones they replaced: same ledger, same trackers, same bytes."""
        from repro.core import offload

        def run(per_shard):
            pipeline = SavedTensorPipeline(
                EDKMConfig(group=LearnerGroup(8), shard_min_bytes=512)
            )
            restored = []
            unpack = pipeline._unpack

            def recording_unpack(payload):
                tensor = unpack(payload)
                if payload.entry is not None:
                    restored.append(tensor.storage.data.tobytes())
                return tensor

            pipeline._unpack = recording_unpack
            registry = global_registry()
            with monkeypatch.context() as patch:
                if per_shard:
                    patch.setattr(offload, "ShardedTensor", oracles.PerShardTensor)
                    patch.setattr(offload, "shard_storage", oracles.shard_storage_per_shard)
                    patch.setattr(offload, "all_gather", oracles.all_gather_per_shard)
                gc.collect()
                # The two paths allocate different numbers of objects, so the
                # cycle collector would run at different points of the step.
                gc.disable()
                try:
                    registry.reset_peaks()
                    global_ledger().clear()
                    before = registry.snapshot_all()
                    loss = self._bf16_step(tokenizer, world, pipeline)
                    after = registry.snapshot_all()
                finally:
                    gc.enable()
            trackers = {
                name: (
                    snap.peak_bytes - before[name].current_bytes,
                    snap.alloc_count - before[name].alloc_count,
                    snap.free_count - before[name].free_count,
                )
                for name, snap in after.items()
                if name == "gpu" or name.startswith("cpu")
            }
            stats = pipeline.stats
            counts = (stats.tensors_sharded, stats.bytes_sharded_local, stats.gathers)
            return loss, restored, global_ledger().totals(), trackers, counts

        loss, restored, traffic, trackers, counts = run(per_shard=False)
        oracle = run(per_shard=True)
        assert counts[0] > 0 and counts[2] > 0 and len(trackers) >= 9
        assert loss == oracle[0]  # bit-identical float, not approx
        assert restored == oracle[1]
        assert traffic == oracle[2]
        assert trackers == oracle[3]
        assert counts == oracle[4]
        global_ledger().clear()
