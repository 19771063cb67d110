"""Crash-safe checkpoint/resume tests (see ``repro/core/checkpoint.py``).

The contract under test: ``save_checkpoint`` + ``resume`` restarts a
compression run *bit-identically* -- a run killed after sweep N and
resumed into a fresh compressor produces the same
centroids, palettized artifacts, and step-cache counters as a run that
was never interrupted -- while the file format is atomic (tmp + rename),
digest-verified, config-pinned, and journaled.
"""

import dataclasses
import json
import os
from unittest import mock

import numpy as np
import pytest

import repro.nn as nn
from repro.core import DKMConfig, ModelCompressor
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorrupt,
    CheckpointError,
    _payload_digest,
    read_checkpoint,
)
from repro.core.uniquify import reset_uniquify_call_count, uniquify_call_count


class _Stack(nn.Module):
    def __init__(self, n_layers=3, in_f=32, out_f=24, seed=0):
        super().__init__()
        for i in range(n_layers):
            setattr(
                self,
                f"layer{i}",
                nn.Linear(in_f, out_f, bias=False, rng=np.random.default_rng(seed + i)),
            )


def _compressor(n_layers=3, seed=0, bits=3):
    stack = _Stack(n_layers=n_layers, seed=seed)
    stack.to("gpu")
    compressor = ModelCompressor(DKMConfig(bits=bits, iters=3))
    compressor.compress(stack)
    return compressor, stack


def _stats(compressor):
    return {
        name: dataclasses.asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


def _resident(cache):
    """Whether ``cache`` holds a decomposition (read under its lock)."""
    with cache._lock:
        return cache._unique is not None


def _centroids(results):
    return {name: result.centroids for name, result in results.items()}


class TestRoundTrip:
    def test_resume_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        # Uninterrupted reference: three sweeps straight through.
        reference, _ = _compressor()
        reference.precluster()
        reference.precluster()
        ref_final = _centroids(reference.precluster())
        # Interrupted run: one sweep, checkpoint, "crash", resume into a
        # *fresh* compressor over identical weights, two more sweeps.
        first, _ = _compressor()
        first.precluster()
        digest = first.save_checkpoint(path)
        assert digest
        resumed, _ = _compressor()  # fresh process stands in for a restart
        payload = resumed.resume(path)
        assert payload["sweeps_completed"] == 1
        assert resumed.sweeps_completed == 1
        resumed.precluster()
        res_final = _centroids(resumed.precluster())
        for name in ref_final:
            assert np.array_equal(ref_final[name], res_final[name]), name
        # Counters too: the resumed run continued the sequence exactly.
        assert _stats(reference) == _stats(resumed)

    def test_exact_float_round_trip(self, tmp_path):
        """Centroids and temperature survive the JSON round trip to the
        last ulp (hex-encoded IEEE-754 bytes, not decimal repr)."""
        path = str(tmp_path / "ckpt.json")
        first, _ = _compressor()
        first.precluster()
        states = {
            name: (
                wrapper.clusterer.state.centroids.copy(),
                wrapper.clusterer.state.temperature,
                wrapper.clusterer.state.iterations_run,
            )
            for name, wrapper in first.wrapped.items()
        }
        first.save_checkpoint(path)
        resumed, _ = _compressor()
        resumed.resume(path)
        for name, wrapper in resumed.wrapped.items():
            centroids, temperature, iterations = states[name]
            state = wrapper.clusterer.state
            assert np.array_equal(state.centroids, centroids)
            assert state.temperature == temperature
            assert state.iterations_run == iterations

    @pytest.mark.parametrize("saved_after", [1, 2, 3])
    def test_resume_after_any_sweep_is_bit_identical(self, tmp_path, saved_after):
        """Four sweeps in all, interrupted after ``saved_after`` of them."""
        path = str(tmp_path / "ckpt.json")
        reference, _ = _compressor(seed=2)
        for _ in range(3):
            reference.precluster()
        ref_final = reference.precluster(compute_error=True)
        first, _ = _compressor(seed=2)
        for _ in range(saved_after):
            first.precluster()
        first.save_checkpoint(path)
        resumed, _ = _compressor(seed=2)
        resumed.resume(path)
        assert resumed.sweeps_completed == saved_after
        for _ in range(3 - saved_after):
            resumed.precluster()
        res_final = resumed.precluster(compute_error=True)
        for name in ref_final:
            assert np.array_equal(ref_final[name].centroids, res_final[name].centroids)
            assert np.array_equal(
                ref_final[name].assignments, res_final[name].assignments
            )
            assert (
                ref_final[name].reconstruction_error
                == res_final[name].reconstruction_error
            )
        assert _stats(reference) == _stats(resumed)
        assert resumed.sweeps_completed == reference.sweeps_completed == 4

    def test_resume_after_refine_all_is_bit_identical(self, tmp_path):
        """A ``refine_all`` sweep leaves its layers warm too: the resumed
        run's counters continue the uninterrupted run's."""
        path = str(tmp_path / "ckpt.json")
        reference, _ = _compressor(seed=4)
        reference.refine_all()
        ref_states = reference.refine_all()
        first, _ = _compressor(seed=4)
        first.refine_all()
        first.save_checkpoint(path)
        resumed, _ = _compressor(seed=4)
        resumed.resume(path)
        res_states = resumed.refine_all()
        for name in ref_states:
            assert np.array_equal(ref_states[name].centroids, res_states[name].centroids)
        assert _stats(reference) == _stats(resumed)

    def test_resume_then_finalize_matches_uninterrupted_artifacts(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        reference, stack_r = _compressor(seed=6)
        reference.precluster()
        ref_report = reference.finalize(stack_r)
        first, _ = _compressor(seed=6)
        first.precluster()
        first.save_checkpoint(path)
        resumed, stack_s = _compressor(seed=6)
        resumed.resume(path)
        report = resumed.finalize(stack_s)
        assert list(report.palettized) == list(ref_report.palettized)
        for name, pal in ref_report.palettized.items():
            assert np.array_equal(report.palettized[name].lut, pal.lut)
            assert np.array_equal(report.palettized[name].packed, pal.packed)
        assert report.total_bytes == ref_report.total_bytes

    def test_released_caches_resume_cold(self, tmp_path):
        """A run that dropped its step caches before saving resumes cold:
        the first post-resume sweep counts a miss per layer, as the
        uninterrupted run does."""
        path = str(tmp_path / "ckpt.json")
        reference, _ = _compressor(seed=8)
        reference.precluster()
        reference.release_step_caches()
        reference.precluster()
        first, _ = _compressor(seed=8)
        first.precluster()
        first.release_step_caches()
        first.save_checkpoint(path)
        assert not any(
            record["warm"] for record in read_checkpoint(path)["layers"].values()
        )
        resumed, _ = _compressor(seed=8)
        resumed.resume(path)
        resumed.precluster()
        assert _stats(reference) == _stats(resumed)


class TestWarmResume:
    """A layer warm at save time comes back with a resident entry, made by
    one ordinary ``StepCache.uniquify`` before the counters are restored."""

    @staticmethod
    def _saved_then_resumed(tmp_path, seed=10, release=()):
        path = str(tmp_path / "ckpt.json")
        first, _ = _compressor(seed=seed)
        first.precluster()
        for name in release:
            first.wrapped[name].step_cache.invalidate()
        first.save_checkpoint(path)
        resumed, _ = _compressor(seed=seed)
        reset_uniquify_call_count()
        resumed.resume(path)
        return first, resumed

    def test_warm_layer_entry_is_resident(self, tmp_path):
        first, resumed = self._saved_then_resumed(tmp_path)
        for name, wrapper in resumed.wrapped.items():
            cache = wrapper.step_cache
            assert cache.is_warm(wrapper.inner.weight, wrapper.dkm_config.weight_dtype)
            assert _resident(cache), name
        # one decomposition per warm layer, and the saved counters survive it
        assert uniquify_call_count() == len(resumed.wrapped)
        assert _stats(resumed) == _stats(first)

    def test_first_uniquify_after_resume_is_a_hit(self, tmp_path):
        _, resumed = self._saved_then_resumed(tmp_path)
        reset_uniquify_call_count()
        for name, wrapper in resumed.wrapped.items():
            cache = wrapper.step_cache
            hits, misses = cache.stats.uniquify_hits, cache.stats.uniquify_misses
            cache.uniquify(wrapper.inner.weight, wrapper.dkm_config.weight_dtype)
            assert cache.stats.uniquify_hits == hits + 1, name
            assert cache.stats.uniquify_misses == misses
        assert uniquify_call_count() == 0

    def test_resumed_run_uniquifies_once_per_warm_layer(self, tmp_path):
        """Resume plus two more sweeps computes each warm layer's
        decomposition once, and counts what the uninterrupted run counts."""
        reference, _ = _compressor(seed=10)
        for _ in range(3):
            reference.precluster()
        _, resumed = self._saved_then_resumed(tmp_path)
        resumed.precluster()
        resumed.precluster()
        assert uniquify_call_count() == len(resumed.wrapped)
        assert _stats(reference) == _stats(resumed)

    def test_only_warm_layers_are_refilled(self, tmp_path):
        first, resumed = self._saved_then_resumed(tmp_path, release=("layer1",))
        assert uniquify_call_count() == len(resumed.wrapped) - 1
        assert not _resident(resumed.wrapped["layer1"].step_cache)
        assert _resident(resumed.wrapped["layer0"].step_cache)
        assert _stats(resumed) == _stats(first)


class TestDurability:
    def test_no_tmp_file_left_behind(self, tmp_path):
        compressor, _ = _compressor()
        compressor.precluster()
        path = str(tmp_path / "ckpt.json")
        compressor.save_checkpoint(path)
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert sorted(leftovers) == ["ckpt.json", "ckpt.json.journal"]

    def test_failed_save_removes_its_tmp_file(self, tmp_path):
        """A save whose rename raises unlinks ``<path>.tmp.<pid>`` and
        leaves the previous checkpoint readable."""
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        digest = compressor.save_checkpoint(path)
        compressor.precluster()
        with mock.patch(
            "repro.core.checkpoint.os.replace", side_effect=OSError("disk gone")
        ):
            with pytest.raises(OSError, match="disk gone"):
                compressor.save_checkpoint(path)
        leftovers = sorted(p.name for p in tmp_path.iterdir())
        assert leftovers == ["ckpt.json", "ckpt.json.journal"]
        assert not os.path.exists(f"{path}.tmp.{os.getpid()}")
        assert read_checkpoint(path)["digest"] == digest

    @pytest.mark.parametrize("failing", ["write", "fsync"])
    def test_failed_write_or_fsync_removes_its_tmp_file(self, tmp_path, failing):
        """The temp file is unlinked whichever step before the rename
        raises, and the previous checkpoint still reads."""
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        digest = compressor.save_checkpoint(path)
        compressor.precluster()
        real_open = open

        class _FailingWrite:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                self._handle.__enter__()
                return self

            def __exit__(self, *exc):
                return self._handle.__exit__(*exc)

            def write(self, data):
                self._handle.write(data[: len(data) // 2])
                raise OSError("disk gone")

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
                compressor.save_checkpoint(path)
        leftovers = sorted(p.name for p in tmp_path.iterdir())
        assert leftovers == ["ckpt.json", "ckpt.json.journal"]
        assert read_checkpoint(path)["digest"] == digest

    def test_save_overwrites_atomically(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        digest_1 = compressor.save_checkpoint(path)
        compressor.precluster()
        digest_2 = compressor.save_checkpoint(path)
        assert digest_1 != digest_2
        assert read_checkpoint(path)["digest"] == digest_2

    def test_journal_records_every_save(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        compressor.save_checkpoint(path)
        compressor.precluster()
        compressor.save_checkpoint(path)
        lines = [
            json.loads(line)
            for line in open(f"{path}.journal", encoding="utf-8")
        ]
        assert [line["sweeps_completed"] for line in lines] == [1, 2]
        assert all(line["digest"] for line in lines)

    def test_corrupt_payload_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        compressor.save_checkpoint(path)
        payload = json.load(open(path, encoding="utf-8"))
        payload["sweeps_completed"] = 99  # tamper without re-digesting
        json.dump(payload, open(path, "w", encoding="utf-8"))
        with pytest.raises(CheckpointCorrupt, match="digest"):
            read_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        compressor.save_checkpoint(path)
        data = open(path, encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(data[: len(data) // 2])
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointCorrupt, match="cannot read"):
            read_checkpoint(str(tmp_path / "nope.json"))


class TestCompatibilityPins:
    def test_config_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor(bits=3)
        compressor.precluster()
        compressor.save_checkpoint(path)
        other, _ = _compressor(bits=4)
        with pytest.raises(CheckpointError, match="config"):
            other.resume(path)

    def test_older_schema_version_refused_by_version(self, tmp_path):
        """A pre-field-removal (version 1) file is refused as such, not
        with the misleading "different clustering config" its changed
        config epoch would otherwise trip."""
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        compressor.save_checkpoint(path)
        payload = json.load(open(path, encoding="utf-8"))
        payload["version"] = 1
        payload["config_epoch"] = "0" * 32
        payload["digest"] = _payload_digest(payload)
        json.dump(payload, open(path, "w", encoding="utf-8"))
        with pytest.raises(CheckpointError, match="schema version 1"):
            compressor.resume(path)

    def test_layer_set_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor(n_layers=3)
        compressor.precluster()
        compressor.save_checkpoint(path)
        other, _ = _compressor(n_layers=4)
        with pytest.raises(CheckpointError, match="layer set"):
            other.resume(path)

    def test_version_3_payload_refused_by_version(self, tmp_path):
        """A version-3 file (it still carried ``active_backend`` and an
        ``EDKMConfig`` repr with a ``search_strategy`` field) is refused
        by version, not as a "different clustering config"."""
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        compressor.save_checkpoint(path)
        payload = json.load(open(path, encoding="utf-8"))
        assert "active_backend" not in payload
        payload.update(version=3, active_backend="serial")
        payload["config_epoch"] = "0" * 32
        payload["digest"] = _payload_digest(payload)
        json.dump(payload, open(path, "w", encoding="utf-8"))
        with pytest.raises(CheckpointError, match="schema version 3"):
            compressor.resume(path)

    def test_version_4_payload_refused_by_version(self, tmp_path):
        """A version-4 file (its config epoch still hashed a ``DKMConfig``
        repr with ``dense_saved_bytes_limit``) is refused by version, not
        as a "different clustering config"."""
        assert CHECKPOINT_VERSION == 5
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        compressor.save_checkpoint(path)
        payload = json.load(open(path, encoding="utf-8"))
        payload["version"] = 4
        payload["config_epoch"] = "0" * 32
        payload["digest"] = _payload_digest(payload)
        json.dump(payload, open(path, "w", encoding="utf-8"))
        with pytest.raises(CheckpointError, match="schema version 4"):
            compressor.resume(path)
