"""Contract tests for the e2e benchmark (collected by the tier-1 run).

``--quick`` shapes only: these check that ``BENCHMARK.json`` says what the
benchmark prints, that every check is armed and can fail, and that the
tracer and ``compare.py`` behave -- never a timing.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["finetune_mus", "finetune_offload", "compress_sweep", "deploy_serve_eval"]
END_TO_END = [
    "setup_s", "op_ms_p50", "op_ms_p75", "work_per_s", "alt_ms_p50",
    "artifact_bytes", "gpu_peak_bytes", "node_peak_bytes",
]  # fmt: skip

# Runs a workload with one library function swapped for a corrupting one:
# the armed check must fail the run.  argv: target module, attribute, then
# run.py's own arguments.
CORRUPT = """
import sys
sys.path[:0] = [{here!r}, {src!r}]
import run
module = __import__(sys.argv[1])
real = getattr(module, sys.argv[2])
def corrupted(*args, **kwargs):
    out = list(real(*args, **kwargs))
    out[0] = out[0] + 1.0 if isinstance(out[0], float) else "oops " + out[0]
    return out
setattr(module, sys.argv[2], corrupted)
sys.argv = ["run.py"] + sys.argv[3:]
sys.exit(run.main())
""".format(here=HERE, src=os.path.join(ROOT, "src"))


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick_runs() -> dict:
    """Every quick run the tests need, started together, finished once."""
    quick = ["--quick", "--seed", "0"]
    commands = {
        "traced": [sys.executable, RUN, "--trace", "1"] + quick,
        "mus": [sys.executable, RUN, "--workload", "finetune_mus"] + quick,
        "sweep": [sys.executable, RUN, "--workload", "compress_sweep"] + quick,
        "bad_loss": [sys.executable, "-c", CORRUPT, "finetune", "library_loop",
                     "--workload", "finetune_offload", "--quick", "--seed", "1"],
        "bad_completion": [sys.executable, "-c", CORRUPT, "deploy", "generate_batch",
                           "--workload", "deploy_serve_eval", "--quick", "--seed", "1"],
    }  # fmt: skip
    procs = {
        key: subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for key, cmd in commands.items()
    }
    done = {}
    for key, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        results = [json.loads(line) for line in out.splitlines() if line.startswith('{"correct"')]
        done[key] = {"code": proc.returncode, "out": out, "err": err, "results": results}
    return done


def test_benchmark_json_schema(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert [w["name"] for w in contract["workloads"]] == WORKLOADS
    assert [m["name"] for m in contract["end_to_end"]] == END_TO_END
    assert 1 <= len(contract["per_layer"]) <= 128
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = contract["end_to_end"][0]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    # 4 + 22 x workloads runs must fit the cap with ~10 s of set-up and checks each.
    assert (4 + 22 * len(WORKLOADS)) * (contract["run_seconds"] + 14) <= 3420


def test_untraced_runs_emit_every_end_to_end_metric(contract, quick_runs):
    for key in ("mus", "sweep"):
        run = quick_runs[key]
        assert run["code"] == 0, run["err"][-2000:]
        (result,) = run["results"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == END_TO_END
        for spec in contract["end_to_end"]:
            metric = result["metrics"][spec["name"]]
            assert set(metric) == {"value", "unit"} and metric["unit"] == spec["unit"]
            assert metric["value"] > 0, spec["name"]
        # the line printed for people carries the sample count beside each value
        assert re.search(r"op_ms_p50\s+\S+ ms\s+n=\d+", run["out"])


def test_traced_run_emits_every_per_layer_metric(contract, quick_runs):
    run = quick_runs["traced"]
    assert run["code"] == 0, run["out"][-3000:] + run["err"][-2000:]
    assert len(run["results"]) == len(WORKLOADS)
    declared = [m["name"] for m in contract["per_layer"]]
    for result in run["results"]:
        assert result["correct"] is True
        assert list(result["metrics"]) == declared
    by_workload = dict(zip(WORKLOADS, run["results"]))
    value = lambda workload, name: by_workload[workload]["metrics"][name]["value"]  # noqa: E731
    # the bypass predictions, as counts
    assert value("finetune_offload", "core.marshal.hit_ratio") == 0
    assert value("finetune_offload", "distributed.collective.gathers_per_step") == 0
    assert value("finetune_mus", "core.marshal.hit_ratio") > 0
    assert value("finetune_mus", "distributed.collective.gathers_per_step") > 0
    assert value("finetune_mus", "core.uniquify.calls_per_step") == value(
        "finetune_offload", "core.uniquify.calls_per_step"
    ) > 0
    assert value("deploy_serve_eval", "core.uniquify.calls_per_step") == 0
    assert value("finetune_mus", "core.dkm.cluster_dense_ms") == 0
    assert value("finetune_offload", "core.edkm.assign_forward_ms") == 0


def test_result_file_rows_and_traces(contract, quick_runs):
    assert quick_runs["traced"]["code"] == 0
    match = re.search(r"wrote (\S+\.json)", quick_runs["traced"]["out"])
    with open(os.path.join(ROOT, match.group(1)), encoding="utf-8") as fh:
        result = json.load(fh)
    assert result["comparable"] is False and result["traced"] is True and result["seed"] == 0
    assert set(result["host"]) == {
        "cpu_count", "python", "numpy", "blas", "blas_threads", "git_sha",
    }  # fmt: skip
    assert [row["workload"] for row in result["rows"]] == WORKLOADS
    measured = set()
    for row in result["rows"]:
        assert set(row["end_to_end"]) == set(END_TO_END)
        for metric in list(row["end_to_end"].values()) + list(row["per_layer"].values()):
            assert set(metric) == {"value", "n", "spread"} and metric["n"] >= 0
        assert row["checks"]["span_tree_well_formed"] is True
        measured |= set(row["per_layer"])
        stem = os.path.basename(match.group(1)).replace("result-", f"{row['workload']}-", 1)
        with open(os.path.join(HERE, "out", stem.replace(".json", ".trace.json"))) as fh:
            events = json.load(fh)["traceEvents"]
        assert sum(1 for e in events if e["name"] == row["workload"]) == 1
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    # every declared per-layer metric is really measured by some workload
    assert measured == {m["name"] for m in contract["per_layer"]}


def test_a_corrupted_loss_or_completion_fails_the_run(quick_runs):
    for key, check in (
        ("bad_loss", "losses_bit_identical_across_loops"),
        ("bad_completion", "served_equals_offline_generate"),
    ):
        run = quick_runs[key]
        assert run["code"] == 1, run["err"][-2000:]
        assert re.search(rf"check {check}\s+FAILED", run["out"])
        assert run["results"][-1]["correct"] is False


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (target / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read()
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "compress_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_span_trees():
    tracer_module = load("tracer")
    ticks = iter(range(100))
    tracer = tracer_module.Tracer(lambda: float(next(ticks)), "w")
    with tracer.span("w"):  # 0 .. 9
        with tracer.span("a", layer="x"):  # 1 .. 4
            with tracer.span("b"):  # 2 .. 3
                pass
        tracer.enabled = False
        with tracer.span("skipped") as nothing:
            assert nothing is None
        tracer.enabled = True
        phase = tracer.current
        first = tracer.add("req", 5.0, 7.0, phase, lane=1)
        tracer.add("req", 6.0, 8.0, phase, lane=2)  # overlaps its sibling
        tracer.add("wait", 5.0, 6.0, first)
        assert [next(ticks) for _ in range(4)] == [5, 6, 7, 8]  # the requests' time passes
    assert tracer.problems() == []
    assert [s["name"] for s in tracer.spans] == ["w", "a", "b", "req", "req", "wait"]
    self_times = dict(zip(["w", "a", "b", "req1", "req2", "wait"], tracer.self_times()))
    assert self_times["w"] == 9 - 3 - 3  # children cover 1..4 and the union 5..8
    assert self_times["a"] == 2 and self_times["req1"] == 1 and min(self_times.values()) >= 0
    assert tracer.intervals("req") == [(5.0, 7.0), (6.0, 8.0)]
    assert "self ms" in tracer.top_n()
    events = tracer.chrome_trace()["traceEvents"]
    assert len(events) == 6 and events[3]["tid"] == 1 and events[1]["args"] == {"layer": "x"}

    tracer.add("escapes", 0.5, 20.0, 0)
    tracer.add("second_root", 0.0, 1.0, None)
    problems = " ".join(tracer.problems())
    assert "leaves its parent" in problems and "2 root spans" in problems


def test_host_speed_scales_by_the_samples_around_an_operation():
    common = load("common")
    now = [0.0]
    host = common.HostSpeed(lambda: now[0])
    host.sample = lambda: None  # samples are written by hand below
    host.stamps = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    ref = host.REF_MS
    host.samples_ms = [ref, ref, 2 * ref, 2 * ref, ref, ref]
    # an operation from 3 to 9 sees the two samples before and the two after
    assert host.scale(3.0, 9.0) == pytest.approx(1 / 1.5)
    assert host.ms(3.0, 9.0) == pytest.approx(6000.0 / 1.5)
    # one that spans samples counts those too; one at the edge uses what exists
    assert host.scale(1.5, 10.5) == pytest.approx(3 / 4)  # all six
    assert host.scale(11.5, 11.6) == pytest.approx(3 / 4)  # 2 ref, ref before; ref after
    ms, result = host.timed(lambda: "built")
    assert result == "built" and ms == 0.0


def test_compare_verdicts(contract, tmp_path):
    compare = load("compare")
    spec = {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.10}
    steady = {"value": 100.0, "n": 50, "spread": 0.05}
    assert compare.verdict(steady, dict(steady, value=104.0), spec)[0] == "same"
    assert compare.verdict(steady, dict(steady, value=115.0), spec)[0] == "regressed"
    assert compare.verdict(steady, dict(steady, value=85.0), spec)[0] == "improved"
    assert compare.verdict(steady, dict(steady, value=115.0, n=2, spread=0.4), spec)[0] == "unresolved"
    assert compare.verdict(steady, None, spec)[0] == "unresolved"
    higher = dict(spec, better="higher")
    assert compare.verdict(steady, dict(steady, value=85.0), higher)[0] == "regressed"
    exact = dict(spec, bound=0.0)
    counted = {"value": 4096.0, "n": 1, "spread": 0.0}
    assert compare.verdict(counted, dict(counted), exact)[0] == "same"
    assert compare.verdict(counted, dict(counted, value=4097.0), exact)[0] == "regressed"

    def result(op_ms: float, failed: int, artifact_bytes: float = 4096.0, **extra) -> dict:
        def row(workload: str) -> dict:
            metrics = {
                m["name"]: dict(counted) if m["unit"] == "bytes" else dict(steady)
                for m in contract["end_to_end"]
            }
            metrics["op_ms_p50"]["value"] = op_ms
            metrics["artifact_bytes"]["value"] = artifact_bytes
            return {"workload": workload, "end_to_end": metrics, "attempted": 100, "failed": failed}

        return {"rows": [row(name) for name in WORKLOADS], **extra}

    # byte counts of one seed must repeat exactly; across seeds the bound applies
    verdicts = lambda a, b: {row[-1] for row in compare.compare(a, b, contract)[0]}  # noqa: E731
    assert verdicts(result(100, 0), result(100, 0, 4100.0)) == {"same"}
    assert verdicts(result(100, 0, seed=3), result(100, 0, 4100.0, seed=3)) == {"same", "regressed"}
    assert verdicts(result(100, 0, seed=3), result(100, 0, 4100.0, seed=4)) == {"same"}

    paths = {}
    for key, (op_ms, failed) in {"base": (100, 0), "slow": (140, 0), "flaky": (100, 3)}.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(result(op_ms, failed)))
    run = lambda a, b: subprocess.run(  # noqa: E731
        [sys.executable, os.path.join(HERE, "compare.py"), str(paths[a]), str(paths[b])],
        capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert run("base", "base").returncode == 0
    slow = run("base", "slow")
    assert slow.returncode == 1 and "regressed" in slow.stdout
    assert run("slow", "base").returncode == 0
    assert run("base", "flaky").returncode == 1
