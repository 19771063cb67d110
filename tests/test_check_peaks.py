"""Tests for ``tools.check_peaks``, the shrink-only ratchet on the e2e
benchmark's byte peaks.  They gate hand-written result files; CI runs the
tool itself against a real quick benchmark run."""

import json

import pytest

from tools import check_peaks


def _write_result(path, peaks):
    rows = [
        {
            "workload": workload,
            "correct": True,
            "end_to_end": {
                metric: {"value": float(value), "n": 1, "spread": 0.0}
                for metric, value in metrics.items()
            },
        }
        for workload, metrics in peaks.items()
    ]
    path.write_text(json.dumps({"seed": 0, "rows": rows}))
    return str(path)


def _write_peaks(path, peaks):
    path.write_text(json.dumps({"version": 1, "peaks": peaks}))
    return str(path)


TRACKED = {"w": {"gpu_peak_bytes": 1000, "node_peak_bytes": 1500}}


def _gate(tmp_path, measured, *extra):
    peaks = _write_peaks(tmp_path / "peaks.json", TRACKED)
    result = _write_result(tmp_path / "result.json", measured)
    return check_peaks.main(["--peaks", peaks, "--result", result, *extra]), peaks


class TestPeakRatchet:
    def test_equal_peaks_pass(self, tmp_path):
        assert _gate(tmp_path, TRACKED)[0] == 0

    @pytest.mark.parametrize("metric", check_peaks.METRICS)
    def test_a_peak_above_its_tracked_value_fails(self, tmp_path, capsys, metric):
        measured = {"w": dict(TRACKED["w"], **{metric: TRACKED["w"][metric] + 1})}
        assert _gate(tmp_path, measured)[0] == 1
        assert f"w {metric}" in capsys.readouterr().err

    def test_a_lower_peak_passes_and_prints_the_value_to_commit(self, tmp_path, capsys):
        measured = {"w": dict(TRACKED["w"], gpu_peak_bytes=900)}
        code, peaks = _gate(tmp_path, measured)
        assert code == 0
        assert "w gpu_peak_bytes: 900" in capsys.readouterr().out
        assert json.loads(open(peaks).read())["peaks"] == TRACKED  # only --update writes

    def test_update_only_lowers(self, tmp_path):
        measured = {"w": {"gpu_peak_bytes": 900, "node_peak_bytes": 1600}}
        code, peaks = _gate(tmp_path, measured, "--update")
        assert code == 1  # node rose: still a failure, and not written
        written = json.loads(open(peaks).read())["peaks"]["w"]
        assert written == {"gpu_peak_bytes": 900, "node_peak_bytes": 1500}

    def test_missing_and_untracked_workloads_fail(self, tmp_path, capsys):
        assert _gate(tmp_path, {"other": TRACKED["w"]})[0] == 1
        err = capsys.readouterr().err
        assert "w: tracked but not measured" in err
        assert "other: measured but has no tracked peaks" in err

    def test_rejects_malformed_peaks_file(self, tmp_path):
        path = tmp_path / "peaks.json"
        path.write_text(json.dumps({"peaks": {}}))
        with pytest.raises(SystemExit, match="version-1"):
            check_peaks.main(["--peaks", str(path), "--result", str(path)])

    def test_tracked_file_covers_every_benchmark_workload(self):
        with open(check_peaks.PEAKS, encoding="utf-8") as fh:
            tracked = json.load(fh)["peaks"]
        with open(f"{check_peaks.ROOT}/BENCHMARK.json", encoding="utf-8") as fh:
            workloads = {w["name"] for w in json.load(fh)["workloads"]}
        assert set(tracked) == workloads
        for peaks in tracked.values():
            assert set(peaks) == set(check_peaks.METRICS)
            assert peaks["gpu_peak_bytes"] <= peaks["node_peak_bytes"]
