"""``python -m repro.bench``: the registry, the one writer, and the gates.

The engineering entries run here in ``--quick`` mode so a broken gate
fails tier-1, and each gate gets a negative case proving ``failures()``
really reads the field it claims to.  No entry has a wall-clock gate.
"""

import copy
import json
import os
import pkgutil

import numpy as np
import pytest

import repro.bench
from repro.bench import faults
from repro.bench.__main__ import BENCHES, main

#: Modules of the package that are not runners.
HELPERS = {"__main__", "tables"}

# The chaos entries recover from injected faults by design, and say so.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.serving.faults.RobustnessWarning"
)

DETERMINISTIC = ("fig2", "serving_faults", "faults")

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "results"
)


def _flip(result, path):
    """A deep copy of ``result`` with the boolean at ``path`` inverted."""
    flipped = copy.deepcopy(result)
    *parents, leaf = path
    target = flipped
    for step in parents:
        target = target[step] if isinstance(step, int) else getattr(target, step)
    if isinstance(target, dict):
        target[leaf] = not target[leaf]
    else:
        setattr(target, leaf, not getattr(target, leaf))
    return flipped


class TestRegistry:
    def test_every_runner_module_is_registered_exactly_once(self):
        modules = {m.name for m in pkgutil.iter_modules(repro.bench.__path__)}
        registered = [module.__name__.rsplit(".", 1)[1] for module in BENCHES.values()]
        assert sorted(registered) == sorted(modules - HELPERS)
        for module in BENCHES.values():
            assert callable(module.run)

    def test_every_tracked_artifact_names_an_entry(self):
        """A ``BENCH_<name>.json`` or ``<name>.txt`` whose runner is gone
        is an orphan."""
        names = os.listdir(RESULTS_DIR)
        artifacts = [
            name[len("BENCH_"):-len(".json")]
            for name in names
            if name.startswith("BENCH_") and name.endswith(".json")
        ] + [name[:-len(".txt")] for name in names if name.endswith(".txt")]
        assert "serving_faults" in artifacts
        assert sorted(set(artifacts) - set(BENCHES)) == []

    def test_list_prints_every_name(self, capsys):
        assert main(["--list"]) == 0
        assert capsys.readouterr().out.split() == list(BENCHES)

    @pytest.mark.parametrize("argv", [["nope"], [], ["faults", "--workers", "2"]])
    def test_bad_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestWriter:
    def test_json_artifact_is_stamped(self, tmp_path, capsys, monkeypatch, quick_result):
        cached = quick_result("faults")
        monkeypatch.setattr(faults, "run", lambda quick, seed: cached)
        assert main(["faults", "--quick", "--seed", "3", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_faults.json").read_text())
        assert payload["benchmark"] == "faults"
        assert (payload["ok"], payload["failures"]) == (True, [])
        assert (payload["seed"], payload["quick"]) == (3, True)
        assert set(payload["host"]) == {
            "cpu_count", "python", "numpy", "blas_threads", "git_sha",
        }
        assert "all gates passed" in capsys.readouterr().out

    def test_paper_table_artifact_is_the_rendered_text(self, tmp_path, capsys):
        assert main(["table1", "claims", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "claims"):
            text = (tmp_path / f"{name}.txt").read_text()
            assert text.strip() and text in out
        assert not list(tmp_path.glob("*.json"))

    def test_a_failed_gate_exits_1_and_is_listed(
        self, tmp_path, capsys, monkeypatch, quick_result
    ):
        broken = _flip(quick_result("faults"), ("resume_bit_identical",))
        monkeypatch.setattr(faults, "run", lambda quick, seed: broken)
        assert main(["faults", "--quick", "--out", str(tmp_path)]) == 1
        payload = json.loads((tmp_path / "BENCH_faults.json").read_text())
        assert payload["ok"] is False
        assert payload["failures"] == [
            "kill-then-resume: final outputs differ from uninterrupted run"
        ]
        assert "faults: kill-then-resume" in capsys.readouterr().err

    def test_paper_results_have_a_json_view(self):
        for name in ("table1", "fig2", "fig3", "claims"):
            result = BENCHES[name].run(quick=True, seed=0)
            assert result.failures() == []
            json.dumps(result.to_json_dict())


@pytest.fixture(scope="module")
def quick_result():
    """``name -> run(quick=True, seed=0)``, each entry run once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = BENCHES[name].run(quick=True, seed=0)
        return cache[name]

    return get


# name -> (path to one boolean field, words its failure message must carry)
NEGATIVE_CASES = {
    "fig2": (("steps", 0, "counters_reconcile"), ("graph step counters", "reconcile")),
    "serving_faults": (
        ("rows", 0, "tokens_identical"), ("transient_step-c4", "offline reference"),
    ),
    "faults": (("resume_losses_identical",), ("kill-then-resume", "losses")),
}

# Further flags whose flip must surface as exactly one failure.
ALSO_GATED = [
    ("faults", ("resume_bit_identical",)),
    ("serving_faults", ("drain_ok",)),
    ("serving_faults", ("rows", 4, "stranded")),
    ("fig2", ("steps", 1, "counters_reconcile")),
]


class TestDeterministicGates:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_quick_run_passes_every_gate(self, quick_result, name):
        result = quick_result(name)
        assert result.failures() == []
        assert result.render()
        json.dumps(result.to_json_dict())

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_flipping_one_field_is_reported(self, quick_result, name):
        path, words = NEGATIVE_CASES[name]
        failures = _flip(quick_result(name), path).failures()
        assert len(failures) == 1
        for word in words:
            assert word in failures[0]

    @pytest.mark.parametrize("name,path", ALSO_GATED)
    def test_other_flags_are_gated_too(self, quick_result, name, path):
        assert len(_flip(quick_result(name), path).failures()) == 1

    def test_result_digest_sees_every_compared_field(self):
        """The artifact gate compares digests: each field must move one."""
        from repro.core import CompressionReport, PalettizedTensor

        def report(name="layer0", **change):
            fields = dict(
                lut=np.array([-1.0, 1.0], np.float32),
                packed=np.array([6], np.uint8), bits=1, shape=(3,),
            )
            result = CompressionReport()
            result.palettized[name] = PalettizedTensor(**{**fields, **change})
            return result

        base = faults._digest(report())
        assert faults._digest(report()) == base
        for change in (
            dict(lut=np.array([-1.0, 1.5], np.float32)),
            dict(packed=np.array([2], np.uint8)),
        ):
            assert faults._digest(report(**change)) != base, change
        assert faults._digest(report("layer1")) != base

    def test_graph_walk_beating_the_oracle_is_reported(self, quick_result):
        result = copy.deepcopy(quick_result("fig2"))
        graph, oracle = result.steps
        graph.copies_avoided = oracle.copies_avoided + 1
        failures = result.failures()
        assert len(failures) == 1 and "more step copies than the storage-id" in failures[0]


class TestNoChaosCellDropped:
    def test_faults_rows(self, quick_result):
        """One cell stays: kill-then-resume, now of an M+U+S fine-tune.
        The nine process-engine cells are retired with the engine and the
        sweep-granular resume with its checkpoint (``docs/robustness.md``)."""
        result = quick_result("faults")
        payload = result.to_json_dict()
        assert set(payload) == {"benchmark", "n_steps", "resume"}
        assert payload["resume"]["bit_identical"] is True
        assert (result.kill_after, result.n_steps) == (2, 4)

    def test_serving_faults_rows(self, quick_result):
        """One cell per fault kind, plus draining shutdown.  The
        ``breaker-repromotion`` cell is retired with the circuit breaker
        (``docs/robustness.md``); each ``kernel_error`` firing is retried."""
        result = quick_result("serving_faults")
        assert [row.scenario for row in result.rows] == [
            "transient_step-c4", "delay_step-c4", "kernel_error-c4",
            "corrupt_tile-c4", "hang_step-c4", "drain-shutdown",
        ]
        (kernel,) = [row for row in result.rows if row.kind == "kernel_error"]
        assert kernel.fault_events == {"kernel_error": 2}
        assert kernel.step_retries == 2
