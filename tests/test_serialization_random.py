"""Tests for state persistence and seeded randomness."""

import json

import numpy as np
import pytest

import repro.tensor as rt
from repro.tensor import load_state, save_state
from repro.tensor.dtype import _ALL, get_dtype
from repro.tensor.tensor import Tensor


def _randn(*shape, seed=0, **kwargs):
    """A float32 standard-normal tensor; ``kwargs`` go to ``rt.tensor``."""
    values = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    return rt.tensor(values, **kwargs)


class TestSerialization:
    def test_roundtrip_values_and_shapes(self, tmp_path):
        state = {
            "a": _randn(3, 4),
            "b": rt.tensor(np.arange(5)),
        }
        path = str(tmp_path / "state.npz")
        save_state(path, state)
        loaded = load_state(path)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"].numpy(), state["a"].numpy())
        assert np.array_equal(loaded["b"].numpy(), state["b"].numpy())
        assert loaded["b"].dtype is rt.int64

    def test_roundtrip_preserves_logical_dtypes(self, tmp_path):
        state = {
            "bf16": _randn(4, dtype="bfloat16"),
            "fp16": _randn(4, dtype="float16"),
        }
        path = str(tmp_path / "dtypes.npz")
        save_state(path, state)
        loaded = load_state(path)
        assert loaded["bf16"].dtype is rt.bfloat16
        assert loaded["fp16"].dtype is rt.float16
        assert np.array_equal(loaded["bf16"].numpy(), state["bf16"].numpy())

    def test_load_onto_device(self, tmp_path):
        path = str(tmp_path / "dev.npz")
        save_state(path, {"w": _randn(2)})
        loaded = load_state(path, device="gpu")
        assert loaded["w"].device.name == "gpu"

    def test_load_without_extension(self, tmp_path):
        path = str(tmp_path / "noext")
        save_state(path, {"w": _randn(2)})
        loaded = load_state(path)
        assert "w" in loaded

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(str(tmp_path / "nope.npz"))


def _sample_array(dtype_name: str, shape=(5, 3)) -> np.ndarray:
    rng = np.random.default_rng(0)
    if dtype_name == "bool":
        return rng.random(shape) > 0.5
    dtype = get_dtype(dtype_name)
    if dtype.is_floating:
        return (rng.standard_normal(shape) * 3).astype(dtype.np_storage)
    return rng.integers(0, 100, size=shape).astype(dtype.np_storage)


class TestRoundTrip:
    """Every logical dtype, view shape and target device survives
    ``save_state`` / ``load_state`` bit for bit."""

    @pytest.mark.parametrize("device", ["cpu", "gpu"])
    @pytest.mark.parametrize("dtype_name", sorted(_ALL))
    def test_all_dtypes_bit_identical(self, tmp_path, dtype_name, device):
        tensor = Tensor.from_numpy(_sample_array(dtype_name), dtype=dtype_name)
        path = str(tmp_path / "state.npz")
        save_state(path, {"t": tensor})
        loaded = load_state(path, device=device)["t"]
        assert loaded.dtype is tensor.dtype  # interned singleton
        assert loaded.device.name == device
        assert loaded.shape == tensor.shape
        assert np.array_equal(loaded._np(), tensor._np())
        # The physical buffers match byte for byte (bf16's float32
        # backing included).
        assert loaded.storage.data.tobytes() == tensor.storage.data.tobytes()

    def test_bfloat16_keeps_its_logical_width(self, tmp_path):
        tensor = Tensor.from_numpy(np.ones(4, dtype=np.float32), dtype="bfloat16")
        path = str(tmp_path / "bf16.npz")
        save_state(path, {"t": tensor})
        loaded = load_state(path)["t"]
        assert loaded.storage.nbytes == tensor.storage.nbytes == 8
        with open(tmp_path / "bf16.dtypes.json", encoding="utf-8") as fh:
            assert json.load(fh) == {"t": "bfloat16"}

    def test_zero_dim_tensor(self, tmp_path):
        tensor = Tensor.from_numpy(np.float32(3.25))
        assert tensor.shape == ()
        path = str(tmp_path / "scalar.npz")
        save_state(path, {"t": tensor})
        loaded = load_state(path)["t"]
        assert loaded.shape == ()
        assert loaded.numpy() == np.float32(3.25)

    def test_empty_tensor(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        save_state(path, {"t": Tensor.from_numpy(np.zeros((0,), dtype=np.float32))})
        loaded = load_state(path)["t"]
        assert loaded.shape == (0,)
        assert loaded.dtype is rt.float32

    def test_strided_view_saves_its_elements(self, tmp_path):
        base = Tensor.from_numpy(np.arange(24, dtype=np.float32).reshape(4, 6))
        view = base.transpose(0, 1)[1:3]
        assert view.strides != base.strides or view.offset != 0
        path = str(tmp_path / "view.npz")
        save_state(path, {"view": view})
        loaded = load_state(path)["view"]
        assert loaded.shape == view.shape
        assert np.array_equal(loaded.numpy(), view.numpy())

    def test_missing_sidecar_falls_back_to_the_numpy_dtype(self, tmp_path):
        path = str(tmp_path / "plain.npz")
        save_state(path, {"h": _randn(3, dtype="float16")})
        (tmp_path / "plain.dtypes.json").unlink()
        assert load_state(path)["h"].dtype is rt.float16

    def test_every_name_kept(self, tmp_path):
        state = {f"layers.{i}.weight": _randn(2, 3) for i in range(5)}
        path = str(tmp_path / "many.npz")
        save_state(path, state)
        loaded = load_state(path)
        assert set(loaded) == set(state)
        for name, tensor in state.items():
            assert np.array_equal(loaded[name].numpy(), tensor.numpy())


class TestSeededRandomness:
    def test_manual_seed_reproducible(self):
        rt.manual_seed(123)
        a = rt.default_rng().standard_normal(8)
        rt.manual_seed(123)
        b = rt.default_rng().standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        rt.manual_seed(1)
        a = rt.default_rng().standard_normal(8)
        rt.manual_seed(2)
        b = rt.default_rng().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_default_rng_accessor(self):
        rt.manual_seed(7)
        assert rt.default_rng() is rt.default_rng()
