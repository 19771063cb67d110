"""``python -m repro.bench [--list] <name>...|all [--quick] [--seed N] [--out DIR]``.

The one way to run a benchmark.  Every entry of :data:`BENCHES` is a
runner module exposing ``run(quick, seed)``; the result it returns owns
its row printing (``render()``), its artifact payload
(``to_json_dict()``) and **every gate** (``failures()``).  This module
only parses the command line, stamps the run configuration, the verdict
and the host onto the payload, and writes ``BENCH_<name>.json`` -- or the
rendered ``<name>.txt`` for a :class:`~repro.bench.tables.PaperTable`
result.  Exit status is 1 if any gate of any requested benchmark failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy

from repro.bench import (
    claims,
    faults,
    fig2,
    fig3,
    serving_faults,
    table1,
    table2,
    table3,
)
from repro.bench.tables import PaperTable

BENCHES = {
    "table1": table1,
    "fig2": fig2,
    "fig3": fig3,
    "table2": table2,
    "table3": table3,
    "claims": claims,
    "faults": faults,
    "serving_faults": serving_faults,
}


def host_info() -> dict:
    """What the numbers were measured on (stamped into every JSON artifact)."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(threads) if threads and threads.isdigit() else None,
        "git_sha": sha,
    }


def write_artifact(
    name: str, result, stamp: dict, out_dir: str
) -> tuple[str, list[str]]:
    """Write ``name``'s artifact under ``out_dir``; return its path and failures.

    ``stamp`` is the run's ``seed`` / ``quick`` / ``host``; the verdict
    (``ok`` / ``failures``) is added here, from the result's own gates.
    """
    failures = result.failures()
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(result, PaperTable):
        path = os.path.join(out_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result.render() + "\n")
    else:
        payload = result.to_json_dict()
        payload.update(stamp, ok=not failures, failures=failures)
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    return path, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.split("\n\n")[1]
    )
    parser.add_argument("names", nargs="*", metavar="name", help="entries, or 'all'")
    parser.add_argument("--list", action="store_true", help="print the entry names")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke shapes (smaller, fewer repeats); every correctness gate stays armed",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default=os.path.join("benchmarks", "results"),
        metavar="DIR",
        help="artifact directory (default: benchmarks/results)",
    )
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(BENCHES))
        return 0
    names = list(BENCHES) if args.names == ["all"] else args.names
    unknown = [name for name in names if name not in BENCHES]
    if unknown or not names:
        parser.error(
            f"expected 'all' or names from: {' '.join(BENCHES)}"
            + (f" (unknown: {' '.join(unknown)})" if unknown else "")
        )

    stamp = {"seed": args.seed, "quick": args.quick, "host": host_info()}
    failed: list[str] = []
    for name in names:
        print(f"== {name} ==")
        result = BENCHES[name].run(quick=args.quick, seed=args.seed)
        print(result.render())
        path, failures = write_artifact(name, result, stamp, args.out)
        print(f"wrote {path}\n")
        failed += [f"{name}: {failure}" for failure in failures]

    if failed:
        print("FAILURES:", file=sys.stderr)
        for failure in failed:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"all gates passed ({', '.join(names)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
