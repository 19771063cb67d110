"""Tests for Tensor construction, metadata, views, and in-place mutation."""

import numpy as np
import pytest

import repro.tensor as rt
from repro.tensor.storage import Storage
from repro.tensor.tensor import Tensor, contiguous_strides


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

    def test_zeros_ones_full(self):
        assert np.array_equal(rt.zeros(2, 3).numpy(), np.zeros((2, 3)))
        assert np.array_equal(rt.ones(4).numpy(), np.ones(4))
        assert np.array_equal(rt.full((2,), 7.0).numpy(), [7.0, 7.0])

    def test_arange(self):
        assert np.array_equal(rt.arange(5).numpy(), np.arange(5))
        assert np.array_equal(rt.arange(2, 8, 2).numpy(), [2, 4, 6])

    def test_rand_randn_shapes_and_determinism(self):
        rt.manual_seed(42)
        a = rt.randn(3, 4)
        rt.manual_seed(42)
        b = rt.randn(3, 4)
        assert a.shape == (3, 4)
        assert np.array_equal(a.numpy(), b.numpy())

    def test_randint_bounds(self):
        t = rt.randint(3, 9, (100,))
        values = t.numpy()
        assert values.min() >= 3 and values.max() < 9

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
            lambda t: t[1:2].expand(5, 8),
            lambda t: t.transpose(0, 1),
            lambda t: t.view(2, 3, 8).permute(2, 0, 1)[1:],
            lambda t: t[6:6],
            lambda t: t[:, 8:],
        ],
        ids=[
            "whole", "offset-slice", "row", "expand-stride0",
            "transpose", "permute-offset", "zero-rows", "zero-cols-at-end",
        ],
    )
    def test_matches_as_strided(self, make):
        view = make(rt.randn(6, 8))
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
        t = rt.randn(4, 6)
        v = t.view(-1, 2)
        assert v.shares_storage_with(t)
        assert v.shape == (12, 2)

    def test_view_requires_contiguous(self):
        t = rt.randn(4, 6).transpose(0, 1)
        with pytest.raises(RuntimeError, match="contiguous"):
            t.view(24)

    def test_reshape_of_noncontiguous_copies(self):
        t = rt.randn(4, 6)
        r = t.transpose(0, 1).reshape(24)
        assert not r.shares_storage_with(t)
        assert np.array_equal(r.numpy(), t.numpy().T.reshape(24))

    def test_transpose_is_view(self):
        t = rt.randn(3, 5)
        tt = t.transpose(0, 1)
        assert tt.shares_storage_with(t)
        assert tt.shape == (5, 3)
        assert np.array_equal(tt.numpy(), t.numpy().T)
        assert not tt.is_contiguous()

    def test_permute(self):
        t = rt.randn(2, 3, 4)
        p = t.permute(2, 0, 1)
        assert p.shape == (4, 2, 3)
        assert np.array_equal(p.numpy(), np.transpose(t.numpy(), (2, 0, 1)))

    def test_expand_stride_zero(self):
        t = rt.randn(1, 4)
        e = t.expand(3, 4)
        assert e.shares_storage_with(t)
        assert np.array_equal(e.numpy(), np.broadcast_to(t.numpy(), (3, 4)))

    def test_squeeze_unsqueeze(self):
        t = rt.randn(2, 1, 3)
        assert t.squeeze(1).shape == (2, 3)
        assert t.squeeze().shape == (2, 3)
        assert t.unsqueeze(0).shape == (1, 2, 1, 3)
        assert t.unsqueeze(-1).shape == (2, 1, 3, 1)

    def test_flatten(self):
        assert rt.randn(2, 3).flatten().shape == (6,)

    def test_slicing_is_view(self):
        t = rt.randn(6, 8)
        s = t[2:5, ::2]
        assert s.shares_storage_with(t)
        assert np.array_equal(s.numpy(), t.numpy()[2:5, ::2])

    def test_integer_indexing(self):
        t = rt.randn(4, 5)
        row = t[1]
        assert row.shape == (5,)
        assert np.array_equal(row.numpy(), t.numpy()[1])

    def test_ellipsis_and_newaxis(self):
        t = rt.randn(2, 3, 4)
        assert t[..., 0].shape == (2, 3)
        assert t[None].shape == (1, 2, 3, 4)

    def test_negative_index(self):
        t = rt.randn(4)
        assert t[-1].item() == pytest.approx(t.numpy()[-1])

    def test_contiguous_materializes(self):
        t = rt.randn(3, 4).transpose(0, 1)
        c = t.contiguous()
        assert c.is_contiguous()
        assert not c.shares_storage_with(t)
        assert np.array_equal(c.numpy(), t.numpy())

    def test_contiguous_noop_when_contiguous(self):
        t = rt.randn(3, 4)
        assert t.contiguous() is t

    def test_T_property(self):
        t = rt.randn(2, 3)
        assert t.T.shape == (3, 2)
        with pytest.raises(ValueError):
            rt.randn(2, 3, 4).T


class TestMutation:
    def test_copy_preserves_storage_identity(self):
        t = rt.zeros(4)
        storage = t.storage
        t.copy_(np.ones(4, dtype=np.float32))
        assert t.storage is storage
        assert np.array_equal(t.numpy(), np.ones(4))

    def test_copy_from_tensor(self):
        t = rt.zeros(4)
        t.copy_(rt.ones(4))
        assert np.array_equal(t.numpy(), np.ones(4))

    def test_copy_projects_dtype(self):
        t = rt.zeros(1, dtype="bfloat16")
        t.copy_(np.array([1.0000001], dtype=np.float32))
        bits = t.numpy().view(np.uint32)
        assert (bits & 0xFFFF).item() == 0

    def test_fill_zero(self):
        t = rt.ones(4)
        t.zero_()
        assert np.array_equal(t.numpy(), np.zeros(4))

    def test_mutation_through_view_is_visible(self):
        t = rt.zeros(2, 2)
        v = t.view(4)
        v.fill_(5.0)
        assert np.array_equal(t.numpy(), np.full((2, 2), 5.0))


class TestMovement:
    def test_to_same_device_returns_self(self):
        t = rt.zeros(4, device="gpu")
        assert t.to("gpu") is t

    def test_to_new_device_new_storage(self):
        t = rt.zeros(4, device="gpu")
        moved = t.to("cpu")
        assert moved.device.name == "cpu"
        assert not moved.shares_storage_with(t)
        assert np.array_equal(moved.numpy(), t.numpy())

    def test_noncontiguous_to_device_materializes_logical_data(self):
        t = rt.randn(4, 6, device="gpu")
        moved = t.transpose(0, 1).to("cpu")
        assert np.array_equal(moved.numpy(), t.numpy().T)

    def test_cast_roundtrip(self):
        t = rt.randn(8)
        half = t.cast("float16")
        assert half.dtype is rt.float16
        assert np.allclose(half.float().numpy(), t.numpy(), atol=1e-2)

    def test_cast_same_dtype_returns_self(self):
        t = rt.randn(4)
        assert t.cast("float32") is t

    def test_dtype_helpers(self):
        t = rt.randn(4)
        assert t.half().dtype is rt.float16
        assert t.bfloat16().dtype is rt.bfloat16
        assert t.bfloat16().float().dtype is rt.float32
