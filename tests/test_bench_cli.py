"""``python -m repro.bench``: the registry, the one writer, and the gates.

The engineering entries run here in ``--quick`` mode so a broken gate
fails tier-1, and each gate gets a negative case proving ``failures()``
really reads the field it claims to.  No entry has a wall-clock gate.
"""

import copy
import json
import pkgutil

import numpy as np
import pytest

import repro.bench
from repro.bench import engine
from repro.bench.__main__ import BENCHES, main

#: Modules of the package that are not runners.
HELPERS = {"__main__", "tables"}

# The chaos entries recover from injected faults by design, and say so.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.faults.RobustnessWarning"
)

DETERMINISTIC = ("fig2", "engine", "serving", "serving_faults", "faults")


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

    def test_list_prints_every_name(self, capsys):
        assert main(["--list"]) == 0
        assert capsys.readouterr().out.split() == list(BENCHES)

    @pytest.mark.parametrize("argv", [["nope"], [], ["engine", "--workers", "2"]])
    def test_bad_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestWriter:
    def test_json_artifact_is_stamped(self, tmp_path, capsys, monkeypatch, quick_result):
        cached = quick_result("engine")
        monkeypatch.setattr(engine, "run", lambda quick, seed: cached)
        assert main(["engine", "--quick", "--seed", "3", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_engine.json").read_text())
        assert payload["benchmark"] == "engine"
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
        broken = _flip(quick_result("engine"), ("rows", 3, "bit_identical"))
        monkeypatch.setattr(engine, "run", lambda quick, seed: broken)
        assert main(["engine", "--quick", "--out", str(tmp_path)]) == 1
        payload = json.loads((tmp_path / "BENCH_engine.json").read_text())
        assert payload["ok"] is False
        assert payload["failures"] == [
            "compute x2 sweep 1 (cold): outputs differ from serial"
        ]
        assert "engine: compute x2" in capsys.readouterr().err

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
    "engine": (
        ("rows", 4, "stats_identical"), ("compute x2 sweep 2 (warm)", "counters"),
    ),
    "serving": (("tokens_identical",), ("palette completions differ",)),
    "serving_faults": (
        ("rows", 0, "tokens_identical"), ("transient_step-c4", "offline reference"),
    ),
    "faults": (("rows", 6, "log_reconciled"), ("hang", "fault log")),
}

# Further flags whose flip must surface as exactly one failure.  Quick engine
# rows: compute x1 0-2, x2 3-5; dispatch x1 6-8, x2 9-11; skewed x1 12-15,
# x2 16-19, x4 20-23 (skewed cells end with a fourth sweep).
ALSO_GATED = [
    ("engine", ("shm_cleaned",)),
    ("engine", ("rows", 7, "bit_identical")),
    ("faults", ("rows", 0, "shm_cleaned")),
    ("faults", ("rows", 0, "stats_identical")),
    ("faults", ("rows", 8, "expectation_met")),
    ("faults", ("resume_bit_identical",)),
    ("engine", ("rows", 23, "bit_identical")),
    ("engine", ("rows", 21, "stats_identical")),
    ("engine", ("balanced", "skewed x2")),
    ("serving_faults", ("drain_ok",)),
    ("serving_faults", ("rows", 4, "stranded")),
    ("serving", ("admission_accounted",)),
    ("fig2", ("steps", 1, "counters_reconcile")),
    ("engine", ("rows", 5, "bit_identical")),
    ("engine", ("rows", 11, "bit_identical")),
    ("engine", ("rows", 19, "stats_identical")),
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

    def test_warm_process_sweep_shipping_a_full_task_is_reported(self, quick_result):
        result = copy.deepcopy(quick_result("engine"))
        row = result.rows[10]
        assert (row.cell, row.scenario, row.full_tasks) == ("dispatch x2", "warm", 0)
        row.full_tasks = 1
        assert result.failures() == [
            "dispatch x2 sweep 2 (warm): shipped 1 full task(s)"
        ]

    def test_result_digest_sees_every_compared_field(self):
        """The identity gates compare digests: each field must move one."""
        from repro.core.compressor import LayerClusterResult

        def results(**change):
            fields = dict(
                centroids=np.array([-1.0, 1.0], np.float32), temperature=0.5,
                iterations_run=3, assignments=np.array([0, 1, 1]),
                reconstruction_error=0.25,
            )
            return {"layer0": LayerClusterResult(**{**fields, **change})}

        base = engine._digest(results())
        assert engine._digest(results()) == base
        assert engine._digest(results(iterations_run=4)) == base  # not compared
        for change in (
            dict(centroids=np.array([-1.0, 1.5], np.float32)),
            dict(assignments=np.array([0, 1, 0])),
            dict(temperature=0.25),
            dict(reconstruction_error=None),
        ):
            assert engine._digest(results(**change)) != base, change
        assert engine._digest({"layer1": results()["layer0"]}) != base

    def test_graph_walk_beating_the_oracle_is_reported(self, quick_result):
        result = copy.deepcopy(quick_result("fig2"))
        graph, oracle = result.steps
        graph.copies_avoided = oracle.copies_avoided + 1
        failures = result.failures()
        assert len(failures) == 1 and "more step copies than the storage-id" in failures[0]


class TestNoChaosCellDropped:
    def test_faults_rows(self, quick_result):
        result = quick_result("faults")
        assert [row.scenario for row in result.rows] == [
            "kill_cold", "kill_warm", "transient", "delay", "corrupt_delta",
            "drop_shm", "hang", "quarantine", "degrade",
        ]
        assert result.resume_sweeps_completed == 1

    def test_engine_rows(self, quick_result):
        result = quick_result("engine")
        assert [
            (row.workers, row.scenario) for row in result.rows if row.stack == "skewed"
        ] == [(1, scenario) for scenario in ("cold", "warm", "refit", "warm")] + [
            (workers, scenario)
            for workers in (2, 4)
            for scenario in ("cold", "warm", "refit", "crash-recovery")
        ]

    def test_engine_rows_record_the_width_that_ran(self, quick_result):
        """Width 1 is each stack's serial reference; the quick grid keeps
        one process width, except on the placement stack ``skewed``."""
        cells = {(r.stack, r.workers) for r in quick_result("engine").rows}
        assert cells == {
            ("compute", 1), ("compute", 2), ("dispatch", 1), ("dispatch", 2),
            ("skewed", 1), ("skewed", 2), ("skewed", 4),
        }

    def test_full_engine_grid_keeps_every_named_cell(self):
        shapes = engine.stack_shapes(quick=False)
        assert shapes["compute"] == [(512, 512)] * 8
        assert shapes["dispatch"] == [(16, 16)] * 8
        assert shapes["wide16"] == [(64, 64)] * 16
        assert shapes["wide32"] == [(64, 64)] * 32
        assert shapes["skewed"] == [(96, 768)] + [(96, 96)] * 5
        full = engine.grid(quick=False)
        assert full == [(stack, w) for stack in shapes for w in (1, 2, 4)]
        assert set(engine.grid(quick=True)) <= set(full)

    def test_serving_faults_rows(self, quick_result):
        result = quick_result("serving_faults")
        assert [row.scenario for row in result.rows] == [
            "transient_step-c4", "delay_step-c4", "kernel_error-c4",
            "corrupt_tile-c4", "hang_step-c4", "breaker-repromotion",
            "drain-shutdown",
        ]
