"""Tests for Tensor construction, metadata, views, and in-place mutation."""

import numpy as np
import pytest

import repro.tensor as rt
from repro.tensor.storage import Storage
from repro.tensor.tensor import Tensor, contiguous_strides


def _randn(*shape, seed=0, **kwargs):
    """A float32 standard-normal tensor; ``kwargs`` go to ``rt.tensor``."""
    values = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    return rt.tensor(values, **kwargs)


class TestConstruction:
    def test_tensor_from_list(self):
        t = rt.tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype is rt.float32
        assert np.array_equal(t.numpy(), [[1.0, 2.0], [3.0, 4.0]])

    def test_float64_input_defaults_to_float32(self):
        t = rt.tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype is rt.float32

    def test_int_input_keeps_int64(self):
        t = rt.tensor(np.arange(3))
        assert t.dtype is rt.int64

    def test_zeros(self):
        assert np.array_equal(rt.zeros(2, 3).numpy(), np.zeros((2, 3)))

    def test_device_placement(self):
        t = rt.zeros(2, device="gpu")
        assert t.device.name == "gpu"

    def test_bf16_tensor_values_on_grid(self):
        t = rt.tensor([1.0000001], dtype="bfloat16")
        bits = t.numpy().view(np.uint32)
        assert (bits & 0xFFFF).item() == 0


class TestMetadata:
    def test_contiguous_strides(self):
        assert contiguous_strides((2, 3, 4)) == (12, 4, 1)
        assert contiguous_strides(()) == ()

    def test_numel_ndim(self):
        t = rt.zeros(2, 3, 4)
        assert t.numel == 24
        assert t.ndim == 3

    def test_item_scalar(self):
        assert rt.tensor([3.5]).item() == 3.5

    def test_item_non_scalar_raises(self):
        with pytest.raises(ValueError):
            rt.zeros(2).item()

    def test_len(self):
        assert len(rt.zeros(5, 2)) == 5

    def test_numpy_is_a_copy(self):
        t = rt.zeros(3)
        out = t.numpy()
        out[0] = 9.0
        assert t.numpy()[0] == 0.0

    def test_nbytes_is_storage_bytes(self):
        t = rt.zeros(10, dtype="bfloat16")
        assert t.nbytes == 20


def _as_strided_view(t):
    """The unchecked construction ``Tensor._np`` used to return."""
    phys = t.storage.data
    return np.lib.stride_tricks.as_strided(
        phys[t.offset :],
        shape=t.shape,
        strides=tuple(s * phys.itemsize for s in t.strides),
    )


class TestNumpyView:
    """``Tensor._np`` is a bounds-checked strided view of the storage."""

    def test_overrunning_metadata_raises(self):
        """Regression: shape x strides past the buffer used to read foreign
        heap memory (``as_strided`` never checks bounds)."""
        storage = Storage(np.arange(10, dtype=np.float32), rt.float32, rt.CPU)
        with pytest.raises(ValueError):
            Tensor(storage, (100,), (1,))._np()
        with pytest.raises(ValueError):
            Tensor(storage, (4,), (1,), offset=8)._np()
        with pytest.raises(ValueError):
            Tensor(storage, (3, 4), (5, 1))._np()

    @pytest.mark.parametrize(
        "make",
        [
            lambda t: t,
            lambda t: t[2:5, 1::2],
            lambda t: t[3],
            lambda t: t.transpose(0, 1),
            lambda t: t.view(2, 3, 8).permute(2, 0, 1)[1:],
            lambda t: t[6:6],
            lambda t: t[:, 8:],
        ],
        ids=[
            "whole", "offset-slice", "row",
            "transpose", "permute-offset", "zero-rows", "zero-cols-at-end",
        ],
    )
    def test_matches_as_strided(self, make):
        view = make(_randn(6, 8))
        got = view._np()
        want = _as_strided_view(view)
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)
        assert np.shares_memory(got, view.storage.data) or got.size == 0

    def test_empty_storage(self):
        assert rt.zeros(0)._np().shape == (0,)
        assert rt.zeros(0, 3)._np().shape == (0, 3)

    def test_view_is_writable_through(self):
        t = rt.zeros(2, 3)
        t.transpose(0, 1)._np()[2, 1] = 7.0
        assert t.numpy()[1, 2] == 7.0


class TestViewSemantics:
    def test_view_shares_storage(self):
        t = _randn(4, 6)
        v = t.view(-1, 2)
        assert v.storage is t.storage
        assert v.shape == (12, 2)

    def test_view_requires_contiguous(self):
        t = _randn(4, 6).transpose(0, 1)
        with pytest.raises(RuntimeError, match="contiguous"):
            t.view(24)

    def test_reshape_of_noncontiguous_copies(self):
        t = _randn(4, 6)
        r = t.transpose(0, 1).reshape(24)
        assert r.storage is not t.storage
        assert np.array_equal(r.numpy(), t.numpy().T.reshape(24))

    def test_transpose_is_view(self):
        t = _randn(3, 5)
        tt = t.transpose(0, 1)
        assert tt.storage is t.storage
        assert tt.shape == (5, 3)
        assert np.array_equal(tt.numpy(), t.numpy().T)
        assert not tt.is_contiguous()

    def test_permute(self):
        t = _randn(2, 3, 4)
        p = t.permute(2, 0, 1)
        assert p.shape == (4, 2, 3)
        assert np.array_equal(p.numpy(), np.transpose(t.numpy(), (2, 0, 1)))

    def test_unsqueeze(self):
        t = _randn(2, 1, 3)
        assert t.unsqueeze(0).shape == (1, 2, 1, 3)
        assert t.unsqueeze(-1).shape == (2, 1, 3, 1)

    def test_slicing_is_view(self):
        t = _randn(6, 8)
        s = t[2:5, ::2]
        assert s.storage is t.storage
        assert np.array_equal(s.numpy(), t.numpy()[2:5, ::2])

    def test_integer_indexing(self):
        t = _randn(4, 5)
        row = t[1]
        assert row.shape == (5,)
        assert np.array_equal(row.numpy(), t.numpy()[1])

    def test_ellipsis_and_newaxis(self):
        t = _randn(2, 3, 4)
        assert t[..., 0].shape == (2, 3)
        assert t[None].shape == (1, 2, 3, 4)

    def test_negative_index(self):
        t = _randn(4)
        assert t[-1].item() == pytest.approx(t.numpy()[-1])

    def test_T_property(self):
        t = _randn(2, 3)
        assert t.T.shape == (3, 2)
        with pytest.raises(ValueError):
            _randn(2, 3, 4).T


class TestMutation:
    def test_copy_preserves_storage_identity(self):
        t = rt.zeros(4)
        storage = t.storage
        t.copy_(np.ones(4, dtype=np.float32))
        assert t.storage is storage
        assert np.array_equal(t.numpy(), np.ones(4))

    def test_copy_from_tensor(self):
        t = rt.zeros(4)
        t.copy_(rt.tensor(np.ones(4, dtype=np.float32)))
        assert np.array_equal(t.numpy(), np.ones(4))

    def test_copy_projects_dtype(self):
        t = rt.zeros(1, dtype="bfloat16")
        t.copy_(np.array([1.0000001], dtype=np.float32))
        bits = t.numpy().view(np.uint32)
        assert (bits & 0xFFFF).item() == 0

    def test_mutation_through_view_is_visible(self):
        t = rt.zeros(2, 2)
        v = t.view(4)
        v.copy_(np.full(4, 5.0, dtype=np.float32))
        assert np.array_equal(t.numpy(), np.full((2, 2), 5.0))


class TestMovement:
    def test_to_same_device_returns_self(self):
        t = rt.zeros(4, device="gpu")
        assert t.to("gpu") is t

    def test_to_new_device_new_storage(self):
        t = rt.zeros(4, device="gpu")
        moved = t.to("cpu")
        assert moved.device.name == "cpu"
        assert moved.storage is not t.storage
        assert np.array_equal(moved.numpy(), t.numpy())

    def test_noncontiguous_to_device_materializes_logical_data(self):
        t = _randn(4, 6, device="gpu")
        moved = t.transpose(0, 1).to("cpu")
        assert np.array_equal(moved.numpy(), t.numpy().T)

    def test_cast_roundtrip(self):
        t = _randn(8)
        half = t.cast("float16")
        assert half.dtype is rt.float16
        assert np.allclose(half.cast("float32").numpy(), t.numpy(), atol=1e-2)

    def test_cast_same_dtype_returns_self(self):
        t = _randn(4)
        assert t.cast("float32") is t
