"""Crash-safe checkpoint/resume tests (see ``repro/core/checkpoint.py``).

The contract under test: ``save_checkpoint`` + ``resume`` restarts a
compression run *bit-identically* -- a run killed after sweep N and
resumed into a fresh process-equivalent compressor produces the same
centroids, palettized artifacts, and step-cache counters as a run that
was never interrupted -- while the file format is atomic (tmp + rename),
digest-verified, config-pinned, and journaled.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    CompressorConfig,
    DKMConfig,
    ModelCompressor,
    RobustnessWarning,
)
from repro.core.checkpoint import (
    CheckpointCorrupt,
    CheckpointError,
    _payload_digest,
    read_checkpoint,
)


class _Stack(nn.Module):
    def __init__(self, n_layers=3, in_f=32, out_f=24, seed=0):
        super().__init__()
        for i in range(n_layers):
            setattr(
                self,
                f"layer{i}",
                nn.Linear(in_f, out_f, bias=False, rng=np.random.default_rng(seed + i)),
            )


def _compressor(num_workers=1, n_layers=3, seed=0, bits=3, **config_kwargs):
    stack = _Stack(n_layers=n_layers, seed=seed)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=bits, iters=3),
        config=CompressorConfig(num_workers=num_workers, **config_kwargs),
    )
    compressor.compress(stack)
    return compressor, stack


def _stats(compressor):
    return {
        name: dataclasses.asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


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

    def test_resume_into_process_engine_stays_identical(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        reference, _ = _compressor()
        for _ in range(3):
            ref_final = _centroids(reference.precluster())
        first, _ = _compressor(num_workers=2)
        try:
            first.precluster()
            first.save_checkpoint(path)
        finally:
            first.close()
        resumed, _ = _compressor(num_workers=2)
        try:
            resumed.resume(path)
            resumed.precluster()
            res_final = _centroids(resumed.precluster())
            for name in ref_final:
                assert np.array_equal(ref_final[name], res_final[name]), name
            assert _stats(reference) == _stats(resumed)
        finally:
            resumed.close()

    def test_process_checkpoint_resumes_on_the_configured_engine(self, tmp_path):
        """A ``"process"`` record installs nothing: a serial-configured
        resume runs the serial loop bit-identically, undegraded, and a
        later width change still reaches the process engine."""
        path = str(tmp_path / "ckpt.json")
        reference, _ = _compressor()
        for _ in range(3):
            ref_final = _centroids(reference.precluster())
        first, _ = _compressor(num_workers=2)
        try:
            first.precluster()
            first.save_checkpoint(path)
        finally:
            first.close()
        assert read_checkpoint(path)["active_backend"] == "process"
        resumed, _ = _compressor(num_workers=1)
        try:
            resumed.resume(path)
            assert resumed.active_backend == "serial"
            resumed.precluster()
            assert resumed.transport_stats() is None
            resumed.config.num_workers = 2
            assert resumed.active_backend == "process"
            res_final = _centroids(resumed.precluster())
            assert resumed.degradations == []
            for name in ref_final:
                assert np.array_equal(ref_final[name], res_final[name]), name
            assert _stats(reference) == _stats(resumed)
        finally:
            resumed.close()

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


class TestDurability:
    def test_no_tmp_file_left_behind(self, tmp_path):
        compressor, _ = _compressor()
        compressor.precluster()
        path = str(tmp_path / "ckpt.json")
        compressor.save_checkpoint(path)
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert sorted(leftovers) == ["ckpt.json", "ckpt.json.journal"]

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

    def test_version_2_payload_refused_by_version(self, tmp_path):
        """A version-2 file (it still carried the configured ``backend``
        and a ``DKMConfig`` repr with a dense row-chunk field) is refused
        by version, not as a "different clustering config"."""
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor()
        compressor.precluster()
        compressor.save_checkpoint(path)
        payload = json.load(open(path, encoding="utf-8"))
        assert "backend" not in payload
        assert payload["active_backend"] == "serial"
        payload.update(version=2, backend="thread", active_backend="thread")
        payload["config_epoch"] = "0" * 32
        payload["digest"] = _payload_digest(payload)
        json.dump(payload, open(path, "w", encoding="utf-8"))
        with pytest.raises(CheckpointError, match="schema version 2"):
            compressor.resume(path)

    def test_degraded_run_resumes_degraded(self, tmp_path):
        """A checkpoint written after a process->serial demotion restores
        the demotion: resume never silently re-promotes onto
        infrastructure that already failed."""
        path = str(tmp_path / "ckpt.json")
        compressor, _ = _compressor(num_workers=2)
        try:
            compressor.precluster()
            with pytest.warns(RobustnessWarning):
                compressor._demote(RuntimeError("simulated node fault"))
            compressor.save_checkpoint(path)
        finally:
            compressor.close()
        assert read_checkpoint(path)["active_backend"] == "serial"
        resumed, _ = _compressor(num_workers=2)
        resumed.resume(path)
        assert resumed.active_backend == "serial"
