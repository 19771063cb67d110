"""Tests for memory trackers, traffic ledger, profiling and reports."""

import gc
import threading

import numpy as np
import pytest

import repro.tensor as rt
from repro.memory import (
    MemoryTracker,
    TrafficLedger,
    format_bytes,
    footprint_table,
    global_ledger,
    profile_memory,
)
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
        assert t.free_count == 1

    def test_peak_monotone(self):
        t = MemoryTracker("t")
        t.allocate(100)
        t.release(100)
        t.allocate(30)
        assert t.peak_bytes == 100

    def test_reset_peak(self):
        t = MemoryTracker("t")
        t.allocate(100)
        t.release(60)
        t.reset_peak()
        assert t.peak_bytes == 40

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

    def test_finalizer_release_under_the_lock_does_not_deadlock(self):
        """A collection that releases a storage (``Storage.__del__`` calls
        ``release``) while the same thread holds the tracker's lock
        completes."""
        t = MemoryTracker("reentry")
        dev = Device("reentry", t)

        class Cycle:
            pass

        def collect_under_lock():
            garbage = Cycle()
            garbage.self = garbage
            garbage.storage = Storage(np.zeros(2, dtype=np.float32), rt.float32, dev)
            del garbage
            with t._lock:
                gc.collect()

        worker = threading.Thread(target=collect_under_lock, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "release deadlocked on the tracker lock"
        assert (t.current_bytes, t.free_count) == (0, 1)


class TestTrafficLedger:
    def test_record_and_totals(self):
        ledger = TrafficLedger()
        ledger.record("gpu", "cpu", 100)
        ledger.record("gpu", "cpu", 50)
        ledger.record("cpu", "gpu", 30)
        assert ledger.total_bytes("gpu", "cpu") == 150
        assert ledger.total_bytes("cpu", "gpu") == 30
        assert ledger.total_bytes() == 180
        assert ledger.transaction_count("gpu", "cpu") == 2

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
        assert ledger.transfers()[0].tag == "offload"


class TestProfileMemory:
    def test_peak_delta_scoped_to_region(self):
        tracker = MemoryTracker("scope")
        tracker.allocate(1000)  # before the region
        with profile_memory([tracker]) as prof:
            tracker.allocate(500)
            tracker.release(500)
        assert prof.peak_delta("scope") == 500
        assert prof.retained_delta("scope") == 0

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
            assert x1.shares_storage_with(x0)
            assert not y0.shares_storage_with(y1)
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

    def test_footprint_table(self):
        t = MemoryTracker("dev0")
        t.allocate(2048)
        table = footprint_table([t])
        assert "dev0" in table
        assert "2.00 KB" in table
