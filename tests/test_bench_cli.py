"""``python -m repro.bench``: the registry, the one writer, and the gates.

The deterministic-gate entries run here in ``--quick`` mode so a broken
gate fails tier-1, and each gets a negative case proving ``failures()``
really reads the field it claims to.  The timing-gated entries
(``fastpath``, ``parallel``) stay out of tier-1; their gate arithmetic is
unit-tested on hand-built results.
"""

import copy
import json
import pkgutil

import pytest

import repro.bench
from repro.bench import fastpath, marshal_strategies, parallel_layers
from repro.bench.__main__ import BENCHES, main

#: Modules of the package that are not runners.
HELPERS = {"__main__", "tables"}

# The chaos entries recover from injected faults by design, and say so.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.faults.RobustnessWarning"
)

DETERMINISTIC = ("marshal", "backends", "serving", "serving_faults", "sharded", "faults")


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

    @pytest.mark.parametrize("argv", [["nope"], [], ["marshal", "--workers", "2"]])
    def test_bad_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestWriter:
    def test_json_artifact_is_stamped(self, tmp_path, capsys):
        assert main(["marshal", "--quick", "--seed", "3", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_marshal.json").read_text())
        assert payload["benchmark"] == "marshal_strategies"
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

    def test_a_failed_gate_exits_1_and_is_listed(self, tmp_path, capsys, monkeypatch):
        real_run = marshal_strategies.run

        def broken(quick, seed):
            result = real_run(quick=quick, seed=seed)
            result.rows[0].counters_reconcile = False
            return result

        monkeypatch.setattr(marshal_strategies, "run", broken)
        assert main(["marshal", "--quick", "--out", str(tmp_path)]) == 1
        payload = json.loads((tmp_path / "BENCH_marshal.json").read_text())
        assert payload["ok"] is False
        assert len(payload["failures"]) == 1 and "graph" in payload["failures"][0]
        assert "marshal: graph" in capsys.readouterr().err

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
    "marshal": (("rows", 1, "counters_reconcile"), ("storage-id", "reconcile")),
    "backends": (("sweeps", 2, "stats_identical"), ("sweep process", "counters")),
    "serving": (("tokens_identical",), ("palette completions differ",)),
    "serving_faults": (
        ("rows", 0, "tokens_identical"), ("transient_step-c4", "offline reference"),
    ),
    "sharded": (("rows", 1, "bit_identical"), ("nodes=1 sweep 2", "outputs differ")),
    "faults": (("rows", 6, "log_reconciled"), ("hang", "fault log")),
}

# Further flags whose flip must surface as exactly one failure.
ALSO_GATED = [
    ("backends", ("shm_cleaned",)),
    ("backends", ("dispatch", 1, "bit_identical")),
    ("faults", ("rows", 0, "shm_cleaned")),
    ("faults", ("rows", 0, "stats_identical")),
    ("faults", ("rows", 8, "expectation_met")),
    ("faults", ("resume_bit_identical",)),
    ("sharded", ("shm_cleaned",)),
    ("sharded", ("rows", 1, "stats_identical")),
    ("sharded", ("balanced", 2)),
    ("serving_faults", ("drain_ok",)),
    ("serving_faults", ("rows", 4, "stranded")),
    ("serving", ("admission_accounted",)),
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


class TestNoChaosCellDropped:
    def test_faults_rows(self, quick_result):
        result = quick_result("faults")
        assert [row.scenario for row in result.rows] == [
            "kill_cold", "kill_warm", "transient", "delay", "corrupt_delta",
            "drop_shm", "hang", "quarantine", "degrade",
        ]
        assert result.resume_sweeps_completed == 1

    def test_sharded_rows(self, quick_result):
        result = quick_result("sharded")
        assert [(row.nodes, row.scenario) for row in result.rows] == [
            (nodes, scenario)
            for nodes in (1, 2, 4)
            for scenario in ("cold", "warm", "crash-recovery")
        ]

    def test_serving_faults_rows(self, quick_result):
        result = quick_result("serving_faults")
        assert [row.scenario for row in result.rows] == [
            "transient_step-c4", "delay_step-c4", "kernel_error-c4",
            "corrupt_tile-c4", "hang_step-c4", "breaker-repromotion",
            "drain-shutdown",
        ]


class TestTimingGateArithmetic:
    """``fastpath`` / ``parallel`` gates on hand-built rows (no timing here)."""

    def _fastpath(self, **step):
        base = dict(
            n_weights=1 << 16, steps=2,
            legacy_seconds_per_step=0.2, fastpath_seconds_per_step=0.1,
            legacy_uniquify_per_step=2.0, fastpath_uniquify_per_step=1.0,
        )
        base.update(step)
        return fastpath.FastPathBenchResult(
            uniquify=[
                fastpath.UniquifyBenchRow(1 << 16, 0.010, 0.005, True),
                fastpath.UniquifyBenchRow(1 << 20, 0.100, 0.010, True),
            ],
            scatter=[fastpath.ScatterBenchRow("segment_sum", 1 << 20, 0.2, 0.05, 0.04, 1e-6)],
            step=[fastpath.StepBenchRow(**base)],
        )

    def test_clean_result_passes(self):
        assert self._fastpath().failures() == []

    def test_union_of_the_two_drifted_gates(self):
        """One slow small-N uniquify row and one step that uniquifies twice
        on the fast path: both are reported."""
        result = self._fastpath(fastpath_uniquify_per_step=2.0)
        result.uniquify[0].histogram_seconds = 0.02  # 0.5x at N = 65 536
        failures = result.failures()
        assert len(failures) == 2
        assert "uniquify N=65536: fast path slower" in failures[0]
        assert "expected exactly one uniquify per step, got 2.0" in failures[1]

    def test_legacy_call_count_and_slow_step(self):
        """The legacy step must uniquify exactly twice, and not be faster."""
        failures = self._fastpath(
            legacy_uniquify_per_step=1.0, fastpath_seconds_per_step=0.4
        ).failures()
        assert len(failures) == 2
        assert "legacy step should uniquify twice" in failures[0]
        assert "fast path slower (0.50x)" in failures[1]

    def test_large_n_floor_and_scatter_ceiling(self):
        result = self._fastpath()
        result.uniquify[1].histogram_seconds = 0.06  # 1.7x: faster, but < 2x
        result.scatter[0].bincount_seconds = 0.16  # 3.2x the matched add.at
        failures = result.failures()
        assert len(failures) == 2
        assert "below the 2.0x floor" in failures[0]
        assert "ceiling 3.0x" in failures[1]

    def _parallel(self, cpu_count, gate_active):
        return parallel_layers.ParallelBenchResult(
            cpu_count=cpu_count,
            speedup_gate_active=gate_active,
            sweeps=[parallel_layers.ParallelSweepRow(8, 1 << 18, 4, 1.0, 0.9, True, True)],
            chunked=[
                parallel_layers.ChunkedDenseRow(6 << 20, 16, 1 << 16, True, "", 1.0, True)
            ],
        )

    def test_speedup_floor_only_when_armed(self):
        assert self._parallel(2, False).failures() == []
        failures = self._parallel(8, True).failures()
        assert len(failures) == 1 and "below the 1.5x floor (8 cores)" in failures[0]
        payload = self._parallel(8, True).to_json_dict()
        assert payload["speedup_gate_active"] is True and payload["min_speedup"] == 1.5

    def test_chunked_dense_gates(self):
        result = self._parallel(2, False)
        result.chunked[0].monolithic_raises = False
        result.sweeps[0].bit_identical = False
        assert len(result.failures()) == 2
