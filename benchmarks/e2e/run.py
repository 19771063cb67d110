"""The pipeline benchmark: eDKM fine-tune -> sweep/finalize -> serve/eval.

    python benchmarks/e2e/run.py [--workload NAME|all] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--quick] [--record]

One workload runs in this process and prints, as its last line, the JSON
object the benchmark contract asks for.  ``--workload all`` (the default)
runs the four workloads, each in a fresh subprocess, prints every metric
and writes ``out/result-<sha>-s<seed>.json``.  Either way the exit code is
non-zero when a correctness check fails.  Every time printed is at reference
speed (``common.HostSpeed``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
HISTORY = os.path.join(HERE, "history.jsonl")
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
QUICK_SECONDS = 0.5


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true", help="tiny shapes; numbers not comparable")
    parser.add_argument("--record", action="store_true", help="append the result to history.jsonl")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(contract["run_seconds"])
    return args


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` directly; ``nogit`` outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head[:12]
    except OSError:
        return "nogit"


def stem(args: argparse.Namespace, workload: str | None = None) -> str:
    parts = [workload or "result", git_sha(), f"s{args.seed}"]
    parts += ["trace"] if args.trace else []
    parts += ["quick"] if args.quick else []
    return "-".join(parts)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_one(args: argparse.Namespace, contract: dict) -> int:
    # One BLAS thread: the library's gemms are small, and a second thread
    # would be one more thing the host can slow.  Must precede the numpy import.
    for name in THREAD_PINS:
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = time.perf_counter()
    import deploy  # noqa: E402
    import finetune  # noqa: E402
    import sweep  # noqa: E402

    from common import HostSpeed, timing  # noqa: E402

    imported = time.perf_counter()
    # The serving layer stamps requests with time.monotonic; spans and
    # samples use the same clock so request stamps can become spans.
    host = HostSpeed(time.monotonic)
    host.sample()
    host.sample()
    import_s = (imported - started) * host.scale(host.stamps[0], host.stamps[-1])
    modules = {
        "finetune_mus": finetune,
        "finetune_offload": finetune,
        "compress_sweep": sweep,
        "deploy_serve_eval": deploy,
    }
    row, tracer = modules[args.workload].run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, host
    )
    row.finish_setup(import_s)
    row.layers["host.ref_kernel_ms"] = timing(host.samples_ms)

    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    measured = row.layers if args.trace else row.e2e
    metrics = {}
    for spec in declared:
        metric = measured.get(spec["name"])
        if metric is None:
            if not args.trace:
                raise SystemExit(f"{args.workload} did not measure {spec['name']}")
            value, n = 0.0, 0  # a layer this workload never enters did no work
        else:
            value, n = metric.value, metric.n
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload:<18} {spec['name']:<46} {value:>16.6g} {spec['unit']:<6} n={n}")
    if args.trace:
        problems = tracer.problems()
        row.checks["span_tree_well_formed"] = not problems
        for problem in problems:
            print(f"{args.workload}: malformed trace: {problem}")
        tracer.write(OUT_DIR, stem(args, args.workload))
    for check, passed in row.checks.items():
        print(f"{args.workload:<18} check {check:<40} {'ok' if passed else 'FAILED'}")
    print(f"{args.workload:<18} ops_attempted {row.attempted}  ops_failed {row.failed}")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{stem(args, args.workload)}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "correct": row.correct,
                "attempted": row.attempted,
                "failed": row.failed,
                "checks": row.checks,
                "end_to_end": {k: m.to_dict() for k, m in row.e2e.items()},
                "per_layer": {k: m.to_dict() for k, m in row.layers.items()},
            },
            fh,
            indent=1,
        )
    print(
        json.dumps(
            {
                "correct": row.correct,
                "attempted": max(row.attempted, 1),
                "failed": row.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if row.correct else 1


# ----------------------------------------------------------------------
# All workloads, one fresh subprocess each
# ----------------------------------------------------------------------


def host_info() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": 1,
        "git_sha": git_sha(),
    }


def run_all(args: argparse.Namespace, contract: dict) -> int:
    rows, worst = [], 0
    for spec in contract["workloads"]:
        # A second model in one process reads a higher ``gpu`` peak than a
        # fresh one does (leaked garbage, not signal): one process each.
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", spec["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])  # fmt: skip
        code = subprocess.run(command, check=False).returncode
        worst = max(worst, code)
        path = os.path.join(OUT_DIR, f"{stem(args, spec['name'])}.json")
        if code in (0, 1) and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                rows.append(json.load(fh))
    result = {
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "comparable": not args.quick,
        "rows": rows,
    }
    path = os.path.join(OUT_DIR, f"{stem(args)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}" + ("  (quick: not comparable)" if args.quick else ""))
    if args.record and worst == 0 and not args.quick:
        with open(HISTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result, separators=(",", ":")) + "\n")
    return worst


def main() -> int:
    contract = load_contract()
    args = parse_args(contract)
    if args.workload == "all":
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
