"""Tests for Storage byte accounting and Device interning."""

import gc
import json
import os
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest

import repro
from repro.distributed import LearnerGroup, ShardedTensor
from repro.memory import profile_memory
from repro.tensor import Tensor, as_device, bfloat16, float32
from repro.tensor.storage import Storage


def _counters(dev):
    tracker = dev.tracker
    return tracker.current_bytes, tracker.alloc_count, tracker.free_count


class TestDeviceInterning:
    def test_same_name_same_object(self):
        assert as_device("gpu") is as_device("gpu")
        assert as_device("cpu:peer1") is as_device("cpu:peer1")

    def test_different_names_different_objects(self):
        assert as_device("gpu") is not as_device("cpu")

    def test_equality_and_hash(self):
        assert as_device("gpu") == as_device("gpu")
        assert hash(as_device("gpu")) == hash(as_device("gpu"))
        assert as_device("gpu") != as_device("cpu")

    def test_passthrough(self):
        gpu = as_device("gpu")
        assert as_device(gpu) is gpu

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            as_device("")
        with pytest.raises(ValueError):
            as_device(123)  # type: ignore[arg-type]

    def test_device_module_is_reachable_as_an_attribute(self):
        """``repro.tensor.device`` is the module, not a function that
        shadows it, so its names read through the attribute."""
        import repro.tensor.device

        module = repro.tensor.device
        assert isinstance(module.HOST_HEAP_RETAINED, bool)
        assert module.CPU is as_device("cpu")
        assert module.GPU is as_device("gpu")


class TestStorageAccounting:
    def test_allocation_charges_logical_bytes(self):
        dev = as_device("test-alloc-1")
        before = dev.tracker.current_bytes
        storage = Storage(np.zeros(100, dtype=np.float32), float32, dev)
        assert dev.tracker.current_bytes - before == 400
        del storage

    def test_bf16_counts_two_bytes_per_element(self):
        dev = as_device("test-alloc-2")
        before = dev.tracker.current_bytes
        storage = Storage(np.zeros(100, dtype=np.float32), bfloat16, dev)
        assert dev.tracker.current_bytes - before == 200  # not 400
        assert storage.nbytes == 200

    def test_release_on_gc(self):
        dev = as_device("test-alloc-3")
        before = dev.tracker.current_bytes
        storage = Storage(np.zeros(64, dtype=np.float32), float32, dev)
        assert dev.tracker.current_bytes > before
        del storage
        gc.collect()
        assert dev.tracker.current_bytes == before

    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_requires_1d_buffer(self):
        dev = as_device("test-reject-1d")
        before = _counters(dev)
        with pytest.raises(ValueError, match="1-D"):
            Storage(np.zeros((4, 4), dtype=np.float32), float32, dev)
        gc.collect()
        assert _counters(dev) == before

    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_requires_matching_physical_dtype(self):
        dev = as_device("test-reject-dtype")
        before = _counters(dev)
        with pytest.raises(ValueError, match="dtype"):
            Storage(np.zeros(4, dtype=np.float64), float32, dev)
        gc.collect()
        assert _counters(dev) == before

    def test_cycle_releases_each_charge_once(self):
        """A Storage and a ShardedTensor kept alive only by a reference
        cycle are each released exactly once, by the collector."""
        dev = as_device("test-cycle")
        group = LearnerGroup(2, host=as_device("test-cycle-host"))
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
            np.array([1.0000001], dtype=np.float32), bfloat16, as_device("cpu")
        )
        bits = storage.data.view(np.uint32)
        assert (bits & 0xFFFF).item() == 0

    def test_from_values_copies(self):
        source = np.arange(8, dtype=np.float32)
        storage = Storage.from_values(source, float32, as_device("cpu"))
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
        src_dev = as_device("test-clone-src")
        dst_dev = as_device("test-clone-dst")
        storage = Storage(np.arange(16, dtype=np.float32), float32, src_dev)
        clone = storage.clone_to(dst_dev)
        assert clone.device is dst_dev
        assert np.array_equal(clone.data, storage.data)
        assert clone.data is not storage.data

    def test_peak_tracks_maximum(self):
        dev = as_device("test-peak")
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

        src, dst = as_device("test-swap-move-src"), as_device("test-swap-move-dst")
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

        dev = as_device("test-swap-reproject")
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


def _run_python(source: str) -> str:
    """Run ``source`` in a fresh interpreter that imports this checkout's repro."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


# Five rounds of allocating, touching and freeing 48 MiB as 1 MiB float32
# arrays; prints the minor page faults each round took.
_REFAULT_ROUNDS = """
import json, resource
import numpy as np
from repro.tensor.device import HOST_HEAP_RETAINED
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 18, dtype=np.float32) for _ in range(48)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"retained": HOST_HEAP_RETAINED, "faults": faults}))
"""


class TestHostHeapPolicy:
    """Importing repro keeps freed host memory in the process, the way a
    device caching allocator does (``repro.tensor.device``'s docstring)."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    def test_freed_buffers_are_reused_without_page_faults(self):
        result = json.loads(_run_python(_REFAULT_ROUNDS))
        # Without the policy each round faults its 48 MiB in again (12 256
        # faults of 4 KiB); with it only the first round touches new pages.
        assert all(faults < 64 for faults in result["faults"][1:]), result["faults"]
        assert result["retained"] is True

    # musl and macOS do not know CS_GNU_LIBC_VERSION, so os.confstr raises;
    # a libc that knows the name but has no value returns None.
    @pytest.mark.parametrize(
        "confstr",
        ["raise ValueError('unrecognized configuration name')", "return None"],
        ids=["unknown-name", "no-value"],
    )
    def test_non_glibc_import_applies_nothing(self, confstr):
        line = _run_python(
            "import ctypes, os\n"
            "def confstr(name):\n"
            f"    {confstr}\n"
            "os.confstr = confstr\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('libc was loaded')\n"
            "ctypes.CDLL = refuse\n"
            "import repro\n"
            "from repro.tensor.device import HOST_HEAP_RETAINED\n"
            "print(HOST_HEAP_RETAINED)\n"
        )
        assert line == "False"
