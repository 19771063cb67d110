"""Compare two e2e result files metric by metric.

    python benchmarks/e2e/compare.py A.json B.json

A is the baseline (the parent commit, or the first run set), B the
candidate.  Every (workload, end-to-end metric) pair gets one verdict from
the direction and bound ``BENCHMARK.json`` fixes for the metric (0 for a
byte count when both results are of one seed: those repeat exactly):

- ``regressed`` / ``improved`` -- B is worse / better than A by more than
  the bound;
- ``same`` -- within the bound;
- ``unresolved`` -- the metric is missing on one side, or either run's own
  sampling noise (standard error of its median, from the sample count and
  quartile spread recorded beside the value) exceeds the bound, so a
  change of that size could not have been seen.

Exit code 1 on any ``regressed`` or when B failed a larger share of its
operations than A; ``unresolved`` is reported, not fatal.
"""

from __future__ import annotations

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Standard error of a median ~ 1.2533 sigma / sqrt(n), and IQR ~ 1.349 sigma.
IQR_TO_MEDIAN_SE = 1.2533 / 1.349


def noise(metric: dict) -> float:
    """Relative standard error of the reported value, from its own samples."""
    return IQR_TO_MEDIAN_SE * metric["spread"] / math.sqrt(max(metric["n"], 1))


def verdict(a: dict | None, b: dict | None, spec: dict) -> tuple[str, float]:
    """(verdict, relative change in the *worse* direction) for one metric."""
    if a is None or b is None or not a["value"]:
        return "unresolved", float("nan")
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse = change if spec["better"] == "lower" else -change
    if max(noise(a), noise(b)) > spec["bound"]:
        return "unresolved", worse
    if worse > spec["bound"]:
        return "regressed", worse
    if worse < -spec["bound"]:
        return "improved", worse
    return "same", worse


def failed_share(row: dict) -> float:
    return row["failed"] / max(row["attempted"], 1)


def compare(result_a: dict, result_b: dict, contract: dict) -> tuple[list[tuple], bool]:
    """All verdict rows, and whether B fails the comparison."""
    rows_a = {row["workload"]: row for row in result_a["rows"]}
    rows_b = {row["workload"]: row for row in result_b["rows"]}
    same_seed = "seed" in result_a and result_a["seed"] == result_b.get("seed")
    table, bad = [], False
    for workload in [w["name"] for w in contract["workloads"]]:
        row_a, row_b = rows_a.get(workload), rows_b.get(workload)
        for spec in contract["end_to_end"]:
            if same_seed and spec["unit"] == "bytes":
                spec = dict(spec, bound=0.0)
            a = row_a["end_to_end"].get(spec["name"]) if row_a else None
            b = row_b["end_to_end"].get(spec["name"]) if row_b else None
            outcome, worse = verdict(a, b, spec)
            bad |= outcome == "regressed"
            table.append((workload, spec["name"], a, b, worse, spec["bound"], outcome))
        if row_a and row_b and failed_share(row_b) > failed_share(row_a):
            bad = True
            table.append((workload, "failed_share", None, None, float("nan"), 0.0, "regressed"))
    return table, bad


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        result_a = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        result_b = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    if not (result_a.get("comparable", True) and result_b.get("comparable", True)):
        print("note: a --quick result is in the comparison; its numbers are not comparable")
    table, bad = compare(result_a, result_b, contract)
    print(f"{'workload':<18} {'metric':<18} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>6}  verdict")
    for workload, name, a, b, worse, bound, outcome in table:
        value_a = f"{a['value']:.6g}" if a else "-"
        value_b = f"{b['value']:.6g}" if b else "-"
        print(
            f"{workload:<18} {name:<18} {value_a:>14} {value_b:>14} "
            f"{worse:>+9.1%} {bound:>6.0%}  {outcome}"
        )
    counts = {k: sum(1 for row in table if row[-1] == k) for k in ("same", "improved", "regressed", "unresolved")}
    print("  ".join(f"{k}: {v}" for k, v in counts.items()))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
