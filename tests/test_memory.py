"""Tests for memory trackers, traffic ledger, profiling and reports."""

import gc

import numpy as np
import pytest

import repro.tensor as rt
from repro.memory import (
    MemoryTracker,
    TrafficLedger,
    format_bytes,
    global_ledger,
    profile_memory,
)
from repro.memory.tracker import OP_SCOPE
from repro.tensor import ops
from repro.tensor.device import Device
from repro.tensor.storage import Storage


class TestMemoryTracker:
    def test_allocate_release(self):
        t = MemoryTracker("t")
        t.allocate(100)
        t.allocate(50)
        assert t.current_bytes == 150
        t.release(100)
        assert t.current_bytes == 50
        assert t.alloc_count == 2
        assert t.snapshot().free_count == 1

    def test_peak_monotone(self):
        t = MemoryTracker("t")
        t.allocate(100)
        t.release(100)
        t.allocate(30)
        assert t.snapshot().peak_bytes == 100

    def test_reset_peak(self):
        t = MemoryTracker("t")
        t.allocate(100)
        t.release(60)
        t.reset_peak()
        assert t.snapshot().peak_bytes == 40

    def test_negative_amounts_rejected(self):
        t = MemoryTracker("t")
        with pytest.raises(ValueError):
            t.allocate(-1)
        with pytest.raises(ValueError):
            t.release(-1)

    def test_snapshot(self):
        t = MemoryTracker("snap")
        t.allocate(10)
        snap = t.snapshot()
        t.allocate(10)
        assert snap.current_bytes == 10
        assert snap.name == "snap"

    def test_a_collected_cycle_releases_its_storage(self):
        """The garbage collector runs ``Storage.__del__`` (which calls
        ``release``) for a storage held only by a reference cycle."""
        t = MemoryTracker("reentry")
        dev = Device("reentry", t)

        class Cycle:
            pass

        garbage = Cycle()
        garbage.self = garbage
        garbage.storage = Storage(np.zeros(2, dtype=np.float32), rt.float32, dev)
        del garbage
        assert t.current_bytes == 8
        gc.collect()
        assert (t.current_bytes, t.snapshot().free_count) == (0, 1)


class TestPeakOp:
    """A tracker names the op whose allocation last raised its peak: the op's
    name in its forward, ``"<op>.backward"`` in its backward."""

    @staticmethod
    def _device(name):
        tracker = MemoryTracker(name)
        return tracker, Device(name, tracker)

    def test_the_op_that_raised_the_peak(self):
        tracker, dev = self._device("peak-op")
        a = rt.Tensor.from_numpy(np.ones((4, 4), dtype=np.float32), device=dev)
        assert tracker.snapshot().peak_op == ""  # allocated outside any op
        wide = a @ a  # MatMul allocates 64 B: the peak
        del wide
        small = a + 1.0  # Add allocates 64 B again: not above the peak
        assert tracker.snapshot().peak_op == "MatMul"
        del small
        tracker.reset_peak()
        assert tracker.snapshot().peak_op == ""
        _ = ops.cat([a, a], dim=0)
        assert tracker.snapshot().peak_op == "Cat"

    def test_an_op_that_raises_restores_the_outer_scope(self):
        tracker, dev = self._device("peak-op-raise")
        a = rt.Tensor.from_numpy(np.ones((2, 3), dtype=np.float32), device=dev)
        with pytest.raises(ValueError):
            a @ a  # MatMul rejects the shapes
        assert OP_SCOPE.name == ""
        rt.Tensor.from_numpy(np.ones((8, 8), dtype=np.float32), device=dev)
        assert tracker.snapshot().peak_op == ""


    def test_a_backward_node_names_its_peak(self):
        """The leaf gradients ``MatMul``'s backward creates raise the peak;
        the pass restores the outer scope when it ends."""
        tracker, dev = self._device("peak-op-backward")
        a, b = (
            rt.Tensor.from_numpy(np.ones((4, 4), dtype=np.float32), device=dev, requires_grad=True)
            for _ in range(2)
        )
        loss = (a @ b).sum()
        tracker.reset_peak()
        loss.backward()
        assert tracker.snapshot().peak_op == "MatMul.backward"
        assert OP_SCOPE.name == ""
        assert a.grad is not None and b.grad is not None


class TestTrafficLedger:
    def test_record_and_totals(self):
        ledger = TrafficLedger()
        ledger.record("gpu", "cpu", 100)
        ledger.record("gpu", "cpu", 50)
        ledger.record("cpu", "gpu", 30)
        assert ledger.total_bytes("gpu", "cpu") == 150
        assert ledger.total_bytes("cpu", "gpu") == 30
        assert ledger.total_bytes() == 180
        assert len(ledger) == 3
        assert ledger.totals() == {("gpu", "cpu", ""): (2, 150), ("cpu", "gpu", ""): (1, 30)}

    def test_clear(self):
        ledger = TrafficLedger()
        ledger.record("a", "b", 1)
        ledger.clear()
        assert len(ledger) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficLedger().record("a", "b", -5)

    def test_tags_preserved(self):
        ledger = TrafficLedger()
        ledger.record("gpu", "cpu", 10, tag="offload")
        ledger.record("gpu", "cpu", 4)
        assert ledger.totals() == {("gpu", "cpu", "offload"): (1, 10), ("gpu", "cpu", ""): (1, 4)}
        assert ledger.total_bytes(tag="offload") == 10

    def test_totals_is_a_copy(self):
        ledger = TrafficLedger()
        ledger.record("a", "b", 1)
        totals = ledger.totals()
        totals.clear()
        ledger.record("a", "b", 2)
        assert totals == {} and ledger.totals() == {("a", "b", ""): (2, 3)}


class TestLedgerStaysBounded:
    def test_fine_tune_adds_transactions_not_routes(self):
        """A MICRO M+U+S fine-tune: every step adds the same transactions
        to the same routes, so the ledger's size stops growing at step 1."""
        from repro.core import DKMConfig, EDKMConfig, ModelCompressor, SavedTensorPipeline
        from repro.data import FactWorld, alpaca_batches, corpus_vocabulary, generate_alpaca
        from repro.distributed import LearnerGroup
        from repro.llm import MICRO, FinetuneConfig, WordTokenizer, build_model, train_causal_lm

        world = FactWorld(seed=0)
        tokenizer = WordTokenizer(corpus_vocabulary(world))
        config = EDKMConfig(group=LearnerGroup(8))
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
        model.to(rt.GPU)
        ModelCompressor(DKMConfig(bits=3, iters=2), config).compress(model)
        ledger = global_ledger()
        seen = []  # (len, totals) before each step, then after the last

        def observed(batches):
            for batch in batches:
                seen.append((len(ledger), ledger.totals()))
                yield batch

        examples = generate_alpaca(world, 8 * 4, seed=1)
        batches = alpaca_batches(examples, tokenizer, 4, rt.GPU, seed=2)
        ledger.clear()
        try:
            train_causal_lm(
                model,
                observed(batches),
                FinetuneConfig(lr=1e-3),
                pipeline=SavedTensorPipeline(config),
                max_steps=8,
            )
            seen.append((len(ledger), ledger.totals()))
        finally:
            ledger.clear()
        assert len(seen) == 9
        lengths = [length for length, _ in seen]
        per_step = lengths[3] - lengths[2]
        assert per_step > 0
        assert lengths[8] - lengths[2] == 6 * per_step
        assert set(seen[2][1]) == set(seen[8][1])
        assert {tag for _, _, tag in seen[8][1]} >= {"offload-shard", "backward-gather"}
        assert sum(count for count, _ in seen[8][1].values()) == lengths[8]


class TestProfileMemory:
    def test_peak_delta_scoped_to_region(self):
        tracker = MemoryTracker("scope")
        tracker.allocate(1000)  # before the region
        with profile_memory([tracker]) as prof:
            tracker.allocate(500)
            tracker.release(500)
        assert prof.peak_delta("scope") == 500
        assert prof.devices["scope"].end_bytes == prof.devices["scope"].start_bytes

    def test_traffic_scoped_to_region(self):
        ledger = TrafficLedger()
        ledger.record("gpu", "cpu", 999)  # before
        tracker = MemoryTracker("x")
        with profile_memory([tracker], ledger) as prof:
            ledger.record("gpu", "cpu", 10)
            ledger.record("gpu", "cpu", 5)
        assert prof.traffic("gpu", "cpu") == 15
        assert prof.transactions("gpu", "cpu") == 2
        assert prof.traffic("cpu", "gpu") == 0

    def test_traffic_sums_tags_and_skips_quiet_routes(self):
        ledger = TrafficLedger()
        ledger.record("gpu", "cpu", 999, tag="offload")  # before
        ledger.record("cpu", "gpu", 7)  # before, and quiet inside
        with profile_memory([MemoryTracker("y")], ledger) as prof:
            ledger.record("gpu", "cpu", 10, tag="offload")
            ledger.record("gpu", "cpu", 5, tag="shard")
        assert prof.traffic_bytes == {("gpu", "cpu"): 15}
        assert prof.traffic_transactions == {("gpu", "cpu"): 2}

    def test_table1_semantics_end_to_end(self):
        """The paper's Table 1 numbers, byte-exact."""
        gpu, cpu = rt.GPU, rt.CPU
        with profile_memory([gpu.tracker, cpu.tracker], global_ledger()) as prof:
            x0 = rt.Tensor.from_numpy(
                np.zeros((1024, 1024), dtype=np.float32), device=gpu
            )
            x1 = x0.view(-1, 1)
            y0 = x0.to(cpu)
            y1 = x1.to(cpu)
            assert x1.storage is x0.storage
            assert y0.storage is not y1.storage
            retained_gpu = 4 * 1024 * 1024
            retained_cpu = 8 * 1024 * 1024
            del x0, x1, y0, y1
        assert prof.peak_delta("gpu") == retained_gpu
        assert prof.peak_delta("cpu") == retained_cpu
        assert prof.traffic("gpu", "cpu") == retained_cpu


class TestReport:
    def test_format_bytes(self):
        assert format_bytes(0) == "0.00 B"
        assert format_bytes(1024) == "1.00 KB"
        assert format_bytes(4 * 1024 * 1024) == "4.00 MB"
        assert format_bytes(-2048) == "-2.00 KB"
        assert "TB" in format_bytes(2**45)
