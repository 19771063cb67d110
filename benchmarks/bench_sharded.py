#!/usr/bin/env python
"""Process-engine benchmark entry point (node scaling + delta shipping).

Compresses a heterogeneous model (one embedding-sized layer dominating
several small projections) with ``backend="process"`` on 1, 2, and 4
nodes (``num_workers``) and asserts what the engine promises: every node
count stays *bit-identical* to the serial backend -- centroids,
assignments, reconstruction errors, and per-layer step-cache counters --
across a cold sweep, a warm all-delta sweep, a sweep after a node worker
is hard-killed, and a sweep after the pool grows by one node (which must
keep every unmoved layer on deltas); byte-balanced placement holds the
``mean + largest layer`` bound at every point; and the headline: a model whose total weight bytes exceed a
single node's ``node_memory_budget`` (provably unplaceable on one node)
compresses across two, bit-identical, with no node over budget.  Every
exported shared-memory block must be unlinked after the run.  Writes
``benchmarks/results/BENCH_sharded.json`` (schema: ``docs/benchmarks.md``).

Wall times are recorded but not gated: on a core-starved host the
process transport dominates and CI runners are noisy -- the identity,
placement, budget, and shm-cleanup assertions always fail the run.

    PYTHONPATH=src python benchmarks/bench_sharded.py          # full
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.sharded import run_sharded  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
ARTIFACT = os.path.join(RESULTS_DIR, "BENCH_sharded.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--small-layers", type=int, default=5)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller shapes (CI smoke configuration)",
    )
    parser.add_argument("--output", default=ARTIFACT)
    args = parser.parse_args(argv)

    features = 32 if args.quick else 96
    result = run_sharded(
        features=features, n_small=args.small_layers, seed=args.seed
    )

    payload = result.to_json_dict()
    failures: list[str] = []
    for row in payload["rows"]:
        print(
            f"nodes={row['nodes']} sweep {row['sweep']} "
            f"({row['scenario']:<14}) {row['wall_seconds']:.4f}s  "
            f"{row['bytes_shipped']:>7}B shipped "
            f"({row['bytes_per_layer']:.0f}B/layer) "
            f"({row['full_tasks']} full / {row['delta_tasks']} delta)  "
            f"bit-identical={row['bit_identical']}  "
            f"stats-identical={row['stats_identical']}"
        )
        if not row["bit_identical"]:
            failures.append(
                f"nodes={row['nodes']} sweep {row['sweep']} "
                f"({row['scenario']}): outputs differ from serial"
            )
        if not row["stats_identical"]:
            failures.append(
                f"nodes={row['nodes']} sweep {row['sweep']} "
                f"({row['scenario']}): step-cache counters differ from serial"
            )
        if row["scenario"] == "warm" and row["full_tasks"] != 0:
            failures.append(
                f"nodes={row['nodes']} sweep {row['sweep']}: warm sweep "
                f"still shipped {row['full_tasks']} full task(s)"
            )
        if row["scenario"] == "resize" and row["delta_tasks"] == 0:
            failures.append(
                f"nodes={row['nodes']} sweep {row['sweep']}: the resize tore "
                "every node down (no layer stayed on deltas)"
            )
    for nodes, point in payload["scaling"].items():
        print(
            f"scaling nodes={nodes}: warm {point['warm_wall_seconds']:.4f}s  "
            f"{point['warm_bytes_shipped']}B "
            f"({point['warm_bytes_per_layer']:.0f}B/layer)  loads={point['loads']}  "
            f"balanced={point['balanced']}"
        )
        if not point["balanced"]:
            failures.append(f"nodes={nodes}: placement violates balance bound")
    print(
        f"over-budget: total={payload['total_bytes']}B "
        f"budget={payload['node_budget']}B  "
        f"single-node-infeasible={payload['single_node_infeasible']}  "
        f"max-load={payload['over_budget_max_load']}B  "
        f"identical={payload['over_budget_identical']}  "
        f"stats={payload['over_budget_stats_identical']}"
    )
    if payload["total_bytes"] <= payload["node_budget"]:
        failures.append("headline model does not exceed the per-node budget")
    if not payload["single_node_infeasible"]:
        failures.append("single-node placement unexpectedly fit the budget")
    if not payload["over_budget_identical"]:
        failures.append("over-budget run: outputs differ from serial")
    if not payload["over_budget_stats_identical"]:
        failures.append("over-budget run: step-cache counters differ from serial")
    if payload["over_budget_max_load"] > payload["node_budget"]:
        failures.append(
            f"over-budget run: node load {payload['over_budget_max_load']}B "
            f"exceeds the {payload['node_budget']}B budget"
        )
    if not payload["shm_cleaned"]:
        failures.append("process backend left shared-memory blocks linked")
    print(f"shm-cleaned={payload['shm_cleaned']}  cpu_count={payload['cpu_count']}")

    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    payload["seed"] = args.seed
    payload["quick"] = args.quick
    payload["ok"] = not failures
    payload["failures"] = failures
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.output}")

    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("all process-engine assertions passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
