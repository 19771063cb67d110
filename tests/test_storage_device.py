"""Tests for Storage byte accounting and Device interning."""

import gc

import numpy as np
import pytest

from repro.memory import profile_memory
from repro.tensor import Tensor, bfloat16, device, float32
from repro.tensor.storage import Storage


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

    def test_requires_1d_buffer(self):
        with pytest.raises(ValueError, match="1-D"):
            Storage(np.zeros((4, 4), dtype=np.float32), float32, device("cpu"))

    def test_requires_matching_physical_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            Storage(np.zeros(4, dtype=np.float64), float32, device("cpu"))

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
