"""Crash-safe checkpoint/resume tests (see ``repro/core/checkpoint.py``).

The contract under test: ``train_causal_lm(checkpoint=path)`` restarts an
eDKM fine-tune *bit-identically* -- a run killed after step k and resumed
into a freshly built model with the same seed produces the same losses,
parameter bytes, AdamW state, cluster states and finalized palettes as a
run that was never interrupted -- while the file format is atomic (tmp +
rename), digest-verified, config-pinned and versioned.
"""

import dataclasses
import hashlib
import os
from unittest import mock

import numpy as np
import pytest

import repro.llm.finetune as finetune
import repro.tensor as rt
from repro.core import DKMConfig, EDKMConfig, ModelCompressor, SavedTensorPipeline
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorrupt,
    CheckpointError,
    _digest,
    read_checkpoint,
)
from repro.data import alpaca_batches, generate_alpaca
from repro.distributed import LearnerGroup
from repro.llm import MICRO, FinetuneConfig, build_model, train_causal_lm

N_STEPS = 4
BATCH_SIZE = 8
FINETUNE = FinetuneConfig(lr=1e-3)
EDKM = EDKMConfig(group=LearnerGroup(8))


class _Killed(Exception):
    """The simulated crash: the batch stream dies between two steps."""


def _killed_after(batches, n):
    for index, batch in enumerate(batches):
        if index == n:
            raise _Killed
        yield batch


def _fine_tune(
    world,
    tokenizer,
    checkpoint,
    *,
    seed=0,
    pipelined=True,
    kill_after=None,
    max_steps=None,
    config=FINETUNE,
    spec=MICRO,
    bits=3,
):
    """A MICRO model built from ``seed``, every Linear wrapped for eDKM,
    fine-tuned on a fixed batch stream; returns ``(result, model,
    compressor)``."""
    model = build_model(spec, vocab_size=tokenizer.vocab_size, seed=seed)
    model.to(rt.GPU)
    compressor = ModelCompressor(DKMConfig(bits=bits, iters=2), EDKM)
    compressor.compress(model)
    examples = generate_alpaca(world, N_STEPS * BATCH_SIZE, seed=seed + 1)
    batches = alpaca_batches(examples, tokenizer, BATCH_SIZE, rt.GPU, seed=seed + 2)
    if kill_after is not None:
        batches = _killed_after(batches, kill_after)
    result = train_causal_lm(
        model,
        batches,
        config,
        pipeline=SavedTensorPipeline(EDKM) if pipelined else None,
        max_steps=max_steps,
        checkpoint=checkpoint,
    )
    return result, model, compressor


def _artifacts(compressor, model):
    """blake2b over every finalized palette's name, LUT and packed bytes."""
    digest = hashlib.blake2b(digest_size=16)
    for name, tensor in compressor.finalize(model).palettized.items():
        digest.update(name.encode())
        digest.update(tensor.lut.tobytes())
        digest.update(tensor.packed.tobytes())
    return digest.hexdigest()


def _assert_same_arrays(got, want):
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


def _rewrite(path, arrays):
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


@pytest.fixture(scope="module")
def reference(world, tokenizer, tmp_path_factory):
    """``(seed, pipelined) -> (losses, final checkpoint arrays, artifacts)``
    of an uninterrupted ``N_STEPS`` run, each computed once per module."""
    cache = {}

    def get(seed, pipelined):
        if (seed, pipelined) not in cache:
            path = str(tmp_path_factory.mktemp("reference") / "ckpt.npz")
            result, model, compressor = _fine_tune(
                world, tokenizer, path, seed=seed, pipelined=pipelined
            )
            assert result.steps == N_STEPS
            cache[seed, pipelined] = (
                result.losses,
                read_checkpoint(path),
                _artifacts(compressor, model),
            )
        return cache[seed, pipelined]

    return get


class TestResume:
    @pytest.mark.parametrize("pipelined", [True, False], ids=["mus", "no-pipeline"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kill_after", [1, 2, 3])
    def test_resume_is_byte_identical(
        self, world, tokenizer, reference, tmp_path, seed, pipelined, kill_after
    ):
        """Killed after step ``kill_after`` of ``N_STEPS``, resumed into a
        freshly built model: losses, parameters, AdamW state, cluster
        states and finalized palettes equal the uninterrupted run's."""
        ref_losses, ref_arrays, ref_artifacts = reference(seed, pipelined)
        path = str(tmp_path / "ckpt.npz")
        with pytest.raises(_Killed):
            _fine_tune(
                world, tokenizer, path, seed=seed, pipelined=pipelined,
                kill_after=kill_after,
            )
        assert len(read_checkpoint(path)["losses"]) == kill_after
        result, model, compressor = _fine_tune(
            world, tokenizer, path, seed=seed, pipelined=pipelined
        )
        assert result.losses == ref_losses
        assert result.steps == N_STEPS
        _assert_same_arrays(read_checkpoint(path), ref_arrays)
        assert _artifacts(compressor, model) == ref_artifacts

    @pytest.mark.parametrize("pipelined", [True, False], ids=["mus", "no-pipeline"])
    def test_fresh_checkpoint_path_trains_like_none(
        self, world, tokenizer, tmp_path, monkeypatch, pipelined
    ):
        optimizers = []

        class RecordingAdamW(finetune.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(finetune, "AdamW", RecordingAdamW)
        runs = [
            _fine_tune(world, tokenizer, checkpoint, pipelined=pipelined)
            for checkpoint in (None, str(tmp_path / "ckpt.npz"))
        ]
        (plain, plain_model, plain_comp), (saved, saved_model, saved_comp) = runs
        assert saved.losses == plain.losses
        for (name, a), (_, b) in zip(
            plain_model.named_parameters(), saved_model.named_parameters()
        ):
            assert a.numpy().tobytes() == b.numpy().tobytes(), name
        first, second = optimizers
        assert first.step_count == second.step_count == N_STEPS
        for moments in ("m", "v"):
            for a, b in zip(getattr(first, moments), getattr(second, moments)):
                assert a.tobytes() == b.tobytes()
        assert _artifacts(plain_comp, plain_model) == _artifacts(saved_comp, saved_model)

    def test_max_steps_counts_from_the_first_batch(
        self, world, tokenizer, reference, tmp_path
    ):
        ref_losses, _, _ = reference(0, True)
        path = str(tmp_path / "ckpt.npz")
        _fine_tune(world, tokenizer, path, max_steps=1)
        result, _, _ = _fine_tune(world, tokenizer, path, max_steps=3)
        assert result.steps == 3
        assert result.losses == ref_losses[:3]

    def test_finished_run_restarted_trains_nothing(
        self, world, tokenizer, reference, tmp_path
    ):
        ref_losses, ref_arrays, _ = reference(0, True)
        path = str(tmp_path / "ckpt.npz")
        _fine_tune(world, tokenizer, path)
        digest = str(read_checkpoint(path)["digest"])
        result, model, _ = _fine_tune(world, tokenizer, path)
        assert result.losses == ref_losses
        assert str(read_checkpoint(path)["digest"]) == digest
        for name, param in model.named_parameters():
            assert param.numpy().tobytes() == ref_arrays[f"param:{name}"].tobytes()


class TestCrashDuringSave:
    @pytest.mark.parametrize("failing_save", [1, 2, 3])
    def test_fsync_failure_keeps_the_previous_step(
        self, world, tokenizer, reference, tmp_path, failing_save
    ):
        """The save after step ``failing_save`` dies in ``os.fsync``: the
        previous step's file is what is left, and a run resumed from it
        matches the uninterrupted run byte for byte."""
        ref_losses, ref_arrays, ref_artifacts = reference(0, True)
        path = str(tmp_path / "ckpt.npz")
        calls = []
        real_fsync = os.fsync

        def fsync(fd):
            calls.append(fd)
            if len(calls) == failing_save:
                raise OSError("disk gone")
            real_fsync(fd)

        with mock.patch("repro.core.checkpoint.os.fsync", fsync):
            with pytest.raises(OSError, match="disk gone"):
                _fine_tune(world, tokenizer, path)
        if failing_save == 1:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["ckpt.npz"]
            assert len(read_checkpoint(path)["losses"]) == failing_save - 1
        result, model, compressor = _fine_tune(world, tokenizer, path)
        assert result.losses == ref_losses
        _assert_same_arrays(read_checkpoint(path), ref_arrays)
        assert _artifacts(compressor, model) == ref_artifacts


class _FailingWrite:
    """A file handle whose first write lands half its bytes, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        self._handle.__enter__()
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError("disk gone")


class TestDurability:
    @staticmethod
    def _one_step(world, tokenizer, tmp_path):
        """A checkpoint after step 1; returns its path and digest."""
        path = str(tmp_path / "ckpt.npz")
        _fine_tune(world, tokenizer, path, pipelined=False, max_steps=1)
        return path, str(read_checkpoint(path)["digest"])

    def test_no_tmp_file_left_behind(self, world, tokenizer, tmp_path):
        self._one_step(world, tokenizer, tmp_path)
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def test_failed_save_removes_its_tmp_file(self, world, tokenizer, tmp_path):
        """A save whose rename raises unlinks ``<path>.tmp.<pid>`` and
        leaves the previous checkpoint readable."""
        path, digest = self._one_step(world, tokenizer, tmp_path)
        with mock.patch(
            "repro.core.checkpoint.os.replace", side_effect=OSError("disk gone")
        ):
            with pytest.raises(OSError, match="disk gone"):
                _fine_tune(world, tokenizer, path, pipelined=False, max_steps=2)
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        assert not os.path.exists(f"{path}.tmp.{os.getpid()}")
        assert str(read_checkpoint(path)["digest"]) == digest

    @pytest.mark.parametrize("failing", ["write", "fsync"])
    def test_failed_write_or_fsync_removes_its_tmp_file(
        self, world, tokenizer, tmp_path, failing
    ):
        """The temp file is unlinked whichever step before the rename
        raises, and the previous checkpoint still reads."""
        path, digest = self._one_step(world, tokenizer, tmp_path)
        real_open = open

        def failing_open(name, *args, **kwargs):
            return _FailingWrite(real_open(name, *args, **kwargs))

        target = (
            mock.patch("repro.core.checkpoint.open", failing_open, create=True)
            if failing == "write"
            else mock.patch(
                "repro.core.checkpoint.os.fsync", side_effect=OSError("disk gone")
            )
        )
        with target:
            with pytest.raises(OSError, match="disk gone"):
                _fine_tune(world, tokenizer, path, pipelined=False, max_steps=2)
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        assert str(read_checkpoint(path)["digest"]) == digest

    def test_save_overwrites_atomically(self, world, tokenizer, tmp_path):
        path, digest_1 = self._one_step(world, tokenizer, tmp_path)
        _fine_tune(world, tokenizer, path, pipelined=False, max_steps=2)
        arrays = read_checkpoint(path)
        assert str(arrays["digest"]) != digest_1
        assert len(arrays["losses"]) == 2
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def test_corrupt_payload_rejected(self, world, tokenizer, tmp_path):
        path, _ = self._one_step(world, tokenizer, tmp_path)
        arrays = read_checkpoint(path)
        key = next(key for key in arrays if key.startswith("param:"))
        arrays[key] = arrays[key] + np.float32(1.0)  # tamper, no re-digest
        _rewrite(path, arrays)
        with pytest.raises(CheckpointCorrupt, match="digest"):
            read_checkpoint(path)

    def test_file_without_digest_rejected(self, world, tokenizer, tmp_path):
        path, _ = self._one_step(world, tokenizer, tmp_path)
        arrays = read_checkpoint(path)
        del arrays["digest"]
        _rewrite(path, arrays)
        with pytest.raises(CheckpointCorrupt, match="no digest"):
            read_checkpoint(path)

    def test_truncated_file_rejected(self, world, tokenizer, tmp_path):
        path, _ = self._one_step(world, tokenizer, tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointCorrupt, match="cannot read"):
            read_checkpoint(str(tmp_path / "nope.npz"))


class TestCompatibilityPins:
    @pytest.mark.parametrize(
        "change",
        [
            {"config": FinetuneConfig(lr=2e-3)},
            {"bits": 4},
            {"spec": dataclasses.replace(MICRO, hidden_dim=48)},
        ],
        ids=["finetune-config", "dkm-config", "parameter-shapes"],
    )
    def test_config_mismatch_refused(self, world, tokenizer, tmp_path, change):
        path = str(tmp_path / "ckpt.npz")
        _fine_tune(world, tokenizer, path, pipelined=False, max_steps=1)
        with pytest.raises(CheckpointError, match="different fine-tune or clustering config"):
            _fine_tune(world, tokenizer, path, pipelined=False, **change)

    def test_parameter_set_mismatch_refused(self, world, tokenizer, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        _fine_tune(world, tokenizer, path, pipelined=False, max_steps=1)
        deeper = dataclasses.replace(MICRO, n_layers=3)
        with pytest.raises(CheckpointError, match="parameter set"):
            _fine_tune(world, tokenizer, path, pipelined=False, spec=deeper)

    def test_older_schema_version_refused_by_version(self, world, tokenizer, tmp_path):
        """A file of another schema version is refused as such, not with a
        misleading digest or config message."""
        path = str(tmp_path / "ckpt.npz")
        _fine_tune(world, tokenizer, path, pipelined=False, max_steps=1)
        arrays = read_checkpoint(path)
        arrays["version"] = np.array(CHECKPOINT_VERSION - 1)
        arrays["config"] = np.array("0" * 32)
        arrays["digest"] = np.array(_digest(arrays))
        _rewrite(path, arrays)
        with pytest.raises(CheckpointError, match=f"schema version {CHECKPOINT_VERSION - 1}"):
            _fine_tune(world, tokenizer, path, pipelined=False)
