"""Tests for Storage byte accounting and Device interning."""

import gc
import weakref

import numpy as np
import pytest

from repro.distributed import LearnerGroup, ShardedTensor
from repro.memory import profile_memory
from repro.tensor import Tensor, bfloat16, device, float32
from repro.tensor.storage import Storage


def _counters(dev):
    tracker = dev.tracker
    return tracker.current_bytes, tracker.alloc_count, tracker.free_count


class TestDeviceInterning:
    def test_same_name_same_object(self):
        assert device("gpu") is device("gpu")
        assert device("cpu:peer1") is device("cpu:peer1")

    def test_different_names_different_objects(self):
        assert device("gpu") is not device("cpu")

    def test_equality_and_hash(self):
        assert device("gpu") == device("gpu")
        assert hash(device("gpu")) == hash(device("gpu"))
        assert device("gpu") != device("cpu")

    def test_passthrough(self):
        gpu = device("gpu")
        assert device(gpu) is gpu

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            device("")
        with pytest.raises(ValueError):
            device(123)  # type: ignore[arg-type]


class TestStorageAccounting:
    def test_allocation_charges_logical_bytes(self):
        dev = device("test-alloc-1")
        before = dev.tracker.current_bytes
        storage = Storage(np.zeros(100, dtype=np.float32), float32, dev)
        assert dev.tracker.current_bytes - before == 400
        del storage

    def test_bf16_counts_two_bytes_per_element(self):
        dev = device("test-alloc-2")
        before = dev.tracker.current_bytes
        storage = Storage(np.zeros(100, dtype=np.float32), bfloat16, dev)
        assert dev.tracker.current_bytes - before == 200  # not 400
        assert storage.nbytes == 200

    def test_release_on_gc(self):
        dev = device("test-alloc-3")
        before = dev.tracker.current_bytes
        storage = Storage(np.zeros(64, dtype=np.float32), float32, dev)
        assert dev.tracker.current_bytes > before
        del storage
        gc.collect()
        assert dev.tracker.current_bytes == before

    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_requires_1d_buffer(self):
        dev = device("test-reject-1d")
        before = _counters(dev)
        with pytest.raises(ValueError, match="1-D"):
            Storage(np.zeros((4, 4), dtype=np.float32), float32, dev)
        gc.collect()
        assert _counters(dev) == before

    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_requires_matching_physical_dtype(self):
        dev = device("test-reject-dtype")
        before = _counters(dev)
        with pytest.raises(ValueError, match="dtype"):
            Storage(np.zeros(4, dtype=np.float64), float32, dev)
        gc.collect()
        assert _counters(dev) == before

    def test_cycle_releases_each_charge_once(self):
        """A Storage and a ShardedTensor kept alive only by a reference
        cycle are each released exactly once, by the collector."""
        dev = device("test-cycle")
        group = LearnerGroup(2, host=device("test-cycle-host"))
        devices = [dev, *group.devices]
        before = [_counters(d) for d in devices]

        class Holder:
            pass

        holder = Holder()
        holder.self = holder
        holder.storage = Storage(np.zeros(8, dtype=np.float32), float32, dev)
        holder.sharded = ShardedTensor(
            np.zeros(6, dtype=np.float32), float32, group, (3, 2), [4, 2]
        )
        del holder
        gc.collect()
        for d, (current, allocs, frees) in zip(devices, before):
            assert _counters(d) == (current, allocs + 1, frees + 1), d.name

    def test_from_values_projects(self):
        storage = Storage.from_values(
            np.array([1.0000001], dtype=np.float32), bfloat16, device("cpu")
        )
        bits = storage.data.view(np.uint32)
        assert (bits & 0xFFFF).item() == 0

    def test_from_values_copies(self):
        source = np.arange(8, dtype=np.float32)
        storage = Storage.from_values(source, float32, device("cpu"))
        source[0] = 99.0
        assert storage.data[0] == 0.0

    @pytest.mark.parametrize(
        "np_dtype, dtype",
        [(np.float32, float32), (np.float64, float32), (np.float32, bfloat16)],
        ids=["f32-f32", "f64-f32", "f32-bf16"],
    )
    def test_from_numpy_always_owns_its_buffer(self, np_dtype, dtype):
        """Whether or not projection made a fresh array, the tensor never
        aliases the caller's: later writes to the source must not show."""
        source = np.arange(8, dtype=np_dtype)
        for values in (source, source[2:6], source.reshape(2, 4)):
            tensor = Tensor.from_numpy(values, dtype=dtype)
            assert not np.may_share_memory(tensor.storage.data, source)
            before = tensor.numpy()
            source += 100
            assert np.array_equal(tensor.numpy(), before)
            source -= 100

    def test_clone_to_moves_device(self):
        src_dev = device("test-clone-src")
        dst_dev = device("test-clone-dst")
        storage = Storage(np.arange(16, dtype=np.float32), float32, src_dev)
        clone = storage.clone_to(dst_dev)
        assert clone.device is dst_dev
        assert np.array_equal(clone.data, storage.data)
        assert clone.data is not storage.data

    def test_peak_tracks_maximum(self):
        dev = device("test-peak")
        with profile_memory([dev.tracker]) as prof:
            a = Storage(np.zeros(1000, dtype=np.float32), float32, dev)
            b = Storage(np.zeros(1000, dtype=np.float32), float32, dev)
            del a
            gc.collect()
            c = Storage(np.zeros(100, dtype=np.float32), float32, dev)
            del b, c
            gc.collect()
        assert prof.peak_delta(dev.name) == 8000
        assert prof.retained_delta(dev.name) == 0


class TestCachedViewFollowsStorageSwaps:
    """A tensor keeps its numpy view with the buffer it reads, never the
    Storage: a swapped-out storage is rebuilt over, and dies on time."""

    def test_move_to_reads_new_buffer_and_releases_old(self):
        from repro.nn import Parameter

        src, dst = device("test-swap-move-src"), device("test-swap-move-dst")
        param = Parameter.wrap(Tensor.from_numpy(np.arange(12.0).reshape(3, 4), float32, src))
        old_view = param._np()
        old_storage = weakref.ref(param.storage)
        gc.collect()
        before = src.tracker.current_bytes
        param.move_to(dst)
        gc.collect()
        assert old_storage() is None
        assert src.tracker.current_bytes == before - 48
        view = param._np()
        assert view is not old_view
        assert np.shares_memory(view, param.storage.data)
        assert np.array_equal(view, np.arange(12.0).reshape(3, 4))
        param.fill_(5.0)
        assert (param.storage.data == 5.0).all()

    def test_bf16_reprojection_reads_new_buffer_and_releases_old(self):
        from repro.core import DKMConfig
        from repro.core.compressor import ClusteredLinear
        from repro.nn import Linear

        dev = device("test-swap-reproject")
        layer = Linear(8, 6, bias=False, rng=np.random.default_rng(0))
        layer.to(dev)
        weight = layer.weight
        old_view = weight._np()
        old_storage = weakref.ref(weight.storage)
        gc.collect()
        before = dev.tracker.current_bytes
        ClusteredLinear(layer, DKMConfig(bits=2))
        gc.collect()
        assert weight.dtype is bfloat16
        assert old_storage() is None
        # 48 float32 weights (4 B each) became 48 bf16 ones (2 B each).
        assert dev.tracker.current_bytes == before - 48 * 4 + 48 * 2
        view = weight._np()
        assert view is not old_view
        assert np.shares_memory(view, weight.storage.data)
        assert np.array_equal(view, bfloat16.project(old_view))
