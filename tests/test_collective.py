"""Direct tests for :mod:`repro.distributed.collective`.

One defect is kept here as a regression test: ledger records used
``Tensor.nbytes`` (the *storage* footprint, shared across views), so a
collective over a row-slice view billed the whole backing storage instead
of the bytes actually moved.  ``TestTransferPath`` draws offset and
transposed views of larger storages and checks the ledger bytes.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    LearnerGroup,
    ShardedTensor,
    all_gather,
    shard_rows,
)
from repro.memory.traffic import global_ledger
from repro.tensor.device import GPU
from repro.tensor.dtype import bfloat16, float16, float32, int64, uint16
from repro.tensor.storage import Storage
from repro.tensor.tensor import Tensor


def _tensor(shape, seed=0, dtype=float32, device=None):
    values = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    kwargs = {"dtype": dtype}
    if device is not None:
        kwargs["device"] = device
    return Tensor.from_numpy(values, **kwargs)


@pytest.fixture()
def ledger():
    ledger = global_ledger()
    ledger.clear()
    yield ledger
    ledger.clear()


class TestShardRows:
    @pytest.mark.parametrize("dtype", [float32, bfloat16], ids=["f32", "bf16"])
    def test_round_trip(self, dtype):
        group = LearnerGroup(4)
        tensor = _tensor((10, 6), dtype=dtype, device=group.devices[0])
        sharded = shard_rows(tensor, group)
        gathered = all_gather(sharded, group.devices[0])
        assert gathered.shape == tensor.shape
        assert gathered.dtype is dtype
        assert np.array_equal(gathered._np(), tensor._np())

    def test_round_trip_1d(self):
        group = LearnerGroup(3)
        tensor = _tensor((7,), device=group.devices[0])
        gathered = all_gather(shard_rows(tensor, group), group.devices[0])
        assert np.array_equal(gathered._np(), tensor._np())

    def test_fewer_rows_than_learners(self):
        """np.array_split yields empty shards; they must survive the trip."""
        group = LearnerGroup(4)
        tensor = _tensor((2, 5), device=group.devices[0])
        sharded = shard_rows(tensor, group)
        assert sharded.counts == (5, 5, 0, 0)
        gathered = all_gather(sharded, group.devices[0])
        assert np.array_equal(gathered._np(), tensor._np())

    def test_shard_count_mismatch_rejected(self):
        group = LearnerGroup(3)
        data = np.zeros(12, np.float32)
        with pytest.raises(ValueError, match="shards for 3 learners"):
            ShardedTensor(data, float32, group, (6, 2), [12])
        with pytest.raises(ValueError, match="is not 12 flat"):
            ShardedTensor(data[:10], float32, group, (6, 2), [4, 4, 4])

    def test_scatter_ledger_accounting(self, ledger):
        group = LearnerGroup(4)
        tensor = _tensor((8, 4), device=group.devices[0])
        shard_rows(tensor, group, tag="scatter-test")
        # Learner 0's shard is local: three transfers, each one shard, and
        # each learner its own route.
        assert ledger.totals() == {
            (group.devices[0].name, dev.name, "scatter-test"): (1, 2 * 4 * 4)
            for dev in group.devices[1:]
        }


class TestAllGather:
    def test_ledger_accounting(self, ledger):
        group = LearnerGroup(4)
        tensor = _tensor((8, 4), device=group.devices[0])
        sharded = shard_rows(tensor, group)
        ledger.clear()
        all_gather(sharded, group.devices[0], tag="gather-test")
        # The local shard moves nothing.
        assert ledger.totals() == {
            (dev.name, group.devices[0].name, "gather-test"): (1, 2 * 4 * 4)
            for dev in group.devices[1:]
        }


@st.composite
def _transfer_cases(draw):
    """(n learners, dtype, source tensor) over the shapes sharding meets:
    fewer rows than learners, exact multiples, remainders, 1-3 dims, and
    sources that are offset or transposed views of a larger storage."""
    n = draw(st.sampled_from([1, 3, 8]))
    rows = draw(st.sampled_from([1, n - 1, n, n + 1, 10 * n + 3]))
    tail = tuple(draw(st.lists(st.integers(1, 4), min_size=0, max_size=2)))
    dtype = draw(st.sampled_from([float32, bfloat16, float16, uint16, int64]))
    layout = draw(
        st.sampled_from(["whole", "offset"] + (["transposed"] if tail else []))
    )
    on_primary = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))

    base_shape, view = {
        "whole": ((rows, *tail), lambda base: base),
        "offset": ((rows + 2, *tail), lambda base: base[1 : rows + 1]),
        "transposed": (
            tail[:1] + (rows,) + tail[1:],
            lambda base: base.transpose(0, 1),
        ),
    }[layout]
    rng = np.random.default_rng(seed)
    if dtype.is_floating:
        values = rng.standard_normal(base_shape).astype(np.float32)
    else:
        values = rng.integers(0, 2**16, base_shape).astype(dtype.np_storage)
    group = LearnerGroup(n)
    tensor = view(
        Tensor.from_numpy(
            values, dtype=dtype, device=group.devices[0] if on_primary else GPU
        )
    )
    assert tensor.shape == (rows, *tail)
    return group, dtype, tensor


class TestTransferPath:
    """Shards and gathers move raw storage bytes, fully accounted."""

    @given(_transfer_cases())
    @settings(max_examples=120, deadline=None)
    def test_shard_gather_bytes_trackers_and_ledger(self, case):
        group, dtype, tensor = case
        src = tensor.device
        source = np.ascontiguousarray(tensor._np())
        chunks = np.array_split(source, group.n_learners, axis=0)
        chunk_bytes = [chunk.size * dtype.itemsize for chunk in chunks]
        trackers = [dev.tracker for dev in group.devices] + [GPU.tracker]
        ledger = global_ledger()
        gc.collect()
        baseline = [t.snapshot() for t in trackers]
        ledger.clear()

        # (i) row counts are np.array_split's; (iii) one allocation of the
        # shard's logical bytes on each learner's own tracker, none on the
        # source's.
        sharded = shard_rows(tensor, group, tag="prop-shard")
        assert sharded.full_shape == tensor.shape and sharded.dtype is dtype
        assert sharded.local_nbytes == chunk_bytes[0]
        assert len(sharded.counts) == group.n_learners
        lo = 0
        for count, chunk in zip(sharded.counts, chunks):
            assert count == chunk.size
            assert sharded.data[lo : lo + count].tobytes() == chunk.tobytes()
            lo += count
        for tracker, before, nbytes in zip(trackers, baseline, chunk_bytes):
            after = tracker.snapshot()
            assert after.current_bytes - before.current_bytes == nbytes
            assert after.alloc_count - before.alloc_count == 1
        assert GPU.tracker.snapshot() == baseline[-1]

        # (ii) the gathered storage is byte-equal to a contiguous copy.
        gathered = all_gather(sharded, GPU, tag="prop-gather")
        assert gathered.shape == tensor.shape and gathered.dtype is dtype
        assert gathered.device == GPU and gathered.is_contiguous()
        assert gathered.storage.data.tobytes() == source.tobytes()
        assert not np.shares_memory(gathered.storage.data, sharded.data)
        after = GPU.tracker.snapshot()
        assert after.current_bytes - baseline[-1].current_bytes == sum(chunk_bytes)
        assert after.alloc_count - baseline[-1].alloc_count == 1

        # (iv) one transfer per non-local shard, each way, each learner its
        # own route.
        scatter = {
            (src.name, dev.name, "prop-shard"): (1, nbytes)
            for dev, nbytes in zip(group.devices, chunk_bytes)
            if dev != src
        }
        gather = {
            (dev.name, GPU.name, "prop-gather"): (1, nbytes)
            for dev, nbytes in zip(group.devices, chunk_bytes)
        }
        assert len(scatter) + len(gather) == len(ledger)
        assert ledger.totals() == scatter | gather

        # (iii, cont.) every byte is released with the last reference --
        # which a view's window onto the buffer is not.
        del sharded, gathered
        gc.collect()
        for tracker, before in zip(trackers, baseline):
            after = tracker.snapshot()
            assert after.current_bytes == before.current_bytes
            assert after.free_count - before.free_count == after.alloc_count - before.alloc_count
        ledger.clear()

    def test_gather_rejects_shards_that_do_not_fill_the_shape(self):
        group = LearnerGroup(2)
        sharded = shard_rows(_tensor((4, 3), device=group.devices[0]), group)
        for wrong_shape in [(5, 3), (3, 3)]:
            sharded.full_shape = wrong_shape
            with pytest.raises(ValueError, match="full shape"):
                all_gather(sharded, group.devices[0])

    def test_one_buffer_per_collective(self, monkeypatch):
        """Call shape: sharding builds no ``Storage`` at all -- the learners'
        trackers are charged directly -- and a gather builds exactly the
        destination."""
        built = []
        real_init = Storage.__init__

        def counting_init(self, data, dtype, device):
            built.append(device.name)
            real_init(self, data, dtype, device)

        group = LearnerGroup(8)
        tensor = _tensor((19, 6), device=GPU)
        monkeypatch.setattr(Storage, "__init__", counting_init)
        sharded = shard_rows(tensor, group)
        assert built == []
        all_gather(sharded, GPU)
        assert built == ["gpu"]

    def test_repr_names_shape_shards_and_dtype(self):
        sharded = shard_rows(_tensor((7, 2), device=GPU), LearnerGroup(3))
        assert repr(sharded) == "ShardedTensor(full_shape=(7, 2), n_shards=3, dtype=float32)"
