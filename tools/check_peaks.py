"""Shrink-only ratchet on the e2e benchmark's device byte peaks.

    python -m tools.check_peaks             # run the quick benchmark and gate it
    python -m tools.check_peaks --update    # ... and lower the tracked peaks that fell
    python -m tools.check_peaks --result benchmarks/e2e/out/result-<sha>-s0-quick.json

Runs ``benchmarks/e2e/run.py --quick --seed 0 --trace 0`` (every workload,
each in its own subprocess; the run writes only its untracked ``out/``
files) and compares each workload's ``gpu_peak_bytes`` and
``node_peak_bytes`` with ``tools/peaks.json``.  Quick peaks are byte
counts read after a fixed number of steps, so they depend on the seed alone
and repeat exactly from run to run.

A peak above its tracked value fails.  A lower one passes and is printed
as the value to commit (``--update`` writes it), so tracked peaks only ever
fall -- the pattern of ``tools/check_coverage.py``'s floors, which only
ever rise.  A benchmark run that fails a check, a tracked workload the run
did not measure and a measured workload with no tracked peaks fail too.

Schema::

    {"version": 1, "peaks": {"finetune_mus": {"gpu_peak_bytes": 950696, ...}, ...}}
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")
PEAKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "peaks.json")
RUN_ARGS = ("--quick", "--seed", "0", "--trace", "0")
METRICS = ("gpu_peak_bytes", "node_peak_bytes")


def load_peaks(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != 1 or "peaks" not in payload:
        raise SystemExit(f"{path}: not a version-1 peaks file")
    return payload


def run_benchmark() -> str:
    """Run the quick benchmark; the path of the result file it wrote."""
    proc = subprocess.run(
        [sys.executable, RUN, *RUN_ARGS], cwd=ROOT, capture_output=True, text=True, check=False
    )
    wrote = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("wrote ")]
    if proc.returncode != 0 or not wrote:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
    return os.path.join(ROOT, wrote[-1])


def measured_peaks(result: dict) -> dict[str, dict[str, int]]:
    """``{workload: {metric: bytes}}`` from a ``run.py --workload all`` result."""
    return {
        row["workload"]: {metric: int(row["end_to_end"][metric]["value"]) for metric in METRICS}
        for row in result["rows"]
    }


def compare(
    measured: dict[str, dict[str, int]], tracked: dict[str, dict[str, int]]
) -> tuple[list[str], dict[str, dict[str, int]]]:
    """``(failures, lowered)``: peaks above their tracked values, and the ones below."""
    failures: list[str] = []
    lowered: dict[str, dict[str, int]] = {}
    for workload in sorted(set(tracked) | set(measured)):
        if workload not in measured:
            failures.append(f"{workload}: tracked but not measured")
            continue
        if workload not in tracked:
            failures.append(f"{workload}: measured but has no tracked peaks")
            continue
        for metric in METRICS:
            value, bound = measured[workload][metric], tracked[workload][metric]
            status = "ok" if value == bound else ("lower" if value < bound else "FAIL")
            print(f"{status:<5} {workload:<18} {metric:<16} {value:>10} B (tracked {bound} B)")
            if value > bound:
                failures.append(f"{workload} {metric}: {value} B is above the tracked {bound} B")
            elif value < bound:
                lowered.setdefault(workload, {})[metric] = value
    return failures, lowered


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--peaks", default=PEAKS)
    parser.add_argument("--result", help="gate this result file instead of running the benchmark")
    parser.add_argument(
        "--update", action="store_true", help="lower tracked peaks to measured values (never raises)"
    )
    args = parser.parse_args(argv)

    payload = load_peaks(args.peaks)
    with open(args.result or run_benchmark(), encoding="utf-8") as fh:
        result = json.load(fh)
    failures, lowered = compare(measured_peaks(result), payload["peaks"])

    if lowered:
        print(f"\npeaks fell; commit these values to {os.path.relpath(args.peaks, ROOT)}:")
        for workload, metrics in sorted(lowered.items()):
            for metric, value in sorted(metrics.items()):
                print(f"  {workload} {metric}: {value}")
    if args.update and lowered:
        for workload, metrics in lowered.items():
            payload["peaks"][workload].update(metrics)
        with open(args.peaks, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"updated {args.peaks}")

    if failures:
        print("\npeak ratchet FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
