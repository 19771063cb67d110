"""Chaos benchmark: fault injection, recovery, and crash-safe resume.

Runs one multi-sweep ``precluster`` workload through the process engine
under every fault class the injector knows (worker kill, hang, delay,
transient op failure, corrupted delta payload, reaped shm block) plus two
policy scenarios (retry exhaustion -> quarantine, respawn exhaustion ->
demotion to the serial loop), and asserts the robustness contract end to
end:

- **bit identity** -- every chaotic run's centroids, assignments,
  temperatures, and per-layer step-cache counters equal an undisturbed
  *serial* run's.  Recovery may re-ship, retry, fall back in-parent, or
  demote the run to the serial loop, but it may never change the math.
- **log reconciliation** -- every planned fault kind appears in the
  engine's :class:`~repro.core.faults.FaultLog`; a scenario whose fault
  never fired tested nothing.
- **shm hygiene** -- after ``close()`` every shared-memory block the
  chaotic run ever exported is unlinked, including blocks dropped
  mid-run by the ``drop_shm`` fault.
- **crash-safe resume** -- a run checkpointed after sweep 1 and resumed
  into a fresh compressor finishes bit-identical (outputs *and*
  counters) to a run that was never interrupted.

Recovery wall-time overhead is reported per scenario (chaotic wall minus
an undisturbed process baseline with the same sweep count) but not
gated: the cost of a respawn is host-dependent and CI runners are noisy.
``python -m repro.bench faults`` writes ``BENCH_faults.json`` (schema:
``docs/benchmarks.md``).
"""

from __future__ import annotations

import functools
import os
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.bench.engine import (
    _all_unlinked,
    _digest,
    _layer_stats,
    build_stack_compressor,
)
from repro.core.compressor import ModelCompressor
from repro.core.config import RetryPolicy
from repro.core.faults import FaultPlan, RobustnessWarning


@dataclass
class FaultScenario:
    """One chaos configuration: a fault plan plus the engine's retry policy."""

    name: str
    plan: FaultPlan
    sweeps: int = 2
    config_kwargs: dict = field(default_factory=dict)
    expect_respawn: bool = False
    expect_quarantine: bool = False
    expect_degrade: bool = False

    @property
    def kinds(self) -> list[str]:
        """The distinct fault kinds this scenario plans to inject."""
        return sorted({spec.kind for spec in self.plan.specs})


@dataclass
class FaultRow:
    """One scenario's recovery outcome versus the serial reference."""

    scenario: str
    kinds: list[str]
    sweeps: int
    wall_seconds: float
    baseline_seconds: float
    bit_identical: bool
    stats_identical: bool
    faults_logged: int
    log_reconciled: bool
    respawns: int
    quarantined: int
    degraded_to: str | None
    shm_cleaned: bool
    expectation_met: bool

    def to_json_dict(self) -> dict:
        """The row as a ``BENCH_faults.json`` entry."""
        d = asdict(self)
        d["recovery_overhead_seconds"] = self.wall_seconds - self.baseline_seconds
        return d


@dataclass
class FaultBenchResult:
    """Everything :func:`run_faults` measured, JSON-serializable."""

    cpu_count: int = 0
    workers: int = 0
    n_layers: int = 0
    weights_per_layer: int = 0
    rows: list[FaultRow] = field(default_factory=list)
    resume_bit_identical: bool = False
    resume_stats_identical: bool = False
    resume_sweeps_completed: int = 0
    checkpoint_digest: str = ""
    fault_events: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """The ``BENCH_faults.json`` payload (see ``docs/benchmarks.md``)."""
        return {
            "benchmark": "faults",
            "cpu_count": self.cpu_count,
            "workers": self.workers,
            "n_layers": self.n_layers,
            "weights_per_layer": self.weights_per_layer,
            "rows": [row.to_json_dict() for row in self.rows],
            "resume": {
                "bit_identical": self.resume_bit_identical,
                "stats_identical": self.resume_stats_identical,
                "sweeps_completed_at_checkpoint": self.resume_sweeps_completed,
                "checkpoint_digest": self.checkpoint_digest,
            },
            "fault_events": self.fault_events,
        }

    def render(self) -> str:
        lines = [
            f"{row.scenario:<14} ({'+'.join(row.kinds)}) "
            f"{row.wall_seconds:.3f}s "
            f"({row.wall_seconds - row.baseline_seconds:+.3f}s vs clean)  "
            f"faults={row.faults_logged} respawns={row.respawns} "
            f"quarantined={row.quarantined} "
            f"degraded_to={row.degraded_to or '-'}  "
            f"bit-identical={row.bit_identical}  "
            f"stats-identical={row.stats_identical}"
            for row in self.rows
        ]
        lines.append(
            f"resume: checkpoint@sweep {self.resume_sweeps_completed} "
            f"digest={self.checkpoint_digest[:12]}...  "
            f"bit-identical={self.resume_bit_identical}  "
            f"stats-identical={self.resume_stats_identical}"
        )
        return "\n".join(lines)

    def failures(self) -> list[str]:
        """The robustness contract: every violated clause, by scenario."""
        failures = []
        for row in self.rows:
            checks = [
                (row.bit_identical, "outputs differ from undisturbed serial run"),
                (row.stats_identical, "step-cache counters differ from serial"),
                (row.log_reconciled,
                 f"planned fault kind(s) {row.kinds} never appeared in the fault log"),
                (row.shm_cleaned, "shared-memory blocks left linked"),
                (row.expectation_met,
                 "expected recovery action (respawn/quarantine/degrade) did not happen"),
            ]
            failures += [f"{row.scenario}: {msg}" for ok, msg in checks if not ok]
        if not self.resume_bit_identical:
            failures.append(
                "kill-then-resume: final outputs differ from uninterrupted run"
            )
        if not self.resume_stats_identical:
            failures.append(
                "kill-then-resume: step-cache counters differ from "
                "uninterrupted run"
            )
        return failures


def default_scenarios(
    hang_seconds: float = 600.0, watchdog_s: float = 2.0
) -> list[FaultScenario]:
    """The standard chaos matrix: one scenario per fault class + policies.

    ``hang_seconds`` is deliberately far beyond ``watchdog_s``: a hang
    scenario that finishes at all proves the watchdog fired (the sleep
    alone would exceed any sane suite budget).  ``quarantine`` runs with
    ``retries=0``, so its one failed shipment is also the layer's
    ``retries + 1``-th fallback.
    """
    return [
        FaultScenario(
            name="kill_cold",
            plan=FaultPlan.single("kill", sweep=1),
            expect_respawn=True,
        ),
        FaultScenario(
            name="kill_warm",
            plan=FaultPlan.single("kill", sweep=2),
            sweeps=3,
            expect_respawn=True,
        ),
        FaultScenario(
            name="transient",
            plan=FaultPlan.single("transient", sweep=2),
            config_kwargs={"retry": RetryPolicy(backoff_s=0.001)},
        ),
        FaultScenario(
            name="delay",
            plan=FaultPlan.single("delay", sweep=1, seconds=0.05),
            config_kwargs={"retry": RetryPolicy(timeout_s=60.0)},
        ),
        FaultScenario(
            name="corrupt_delta",
            plan=FaultPlan.single("corrupt_delta", sweep=2),
        ),
        FaultScenario(
            name="drop_shm",
            plan=FaultPlan.single("drop_shm", sweep=2),
            sweeps=3,
        ),
        FaultScenario(
            name="hang",
            plan=FaultPlan.single("hang", sweep=1, seconds=hang_seconds),
            config_kwargs={"retry": RetryPolicy(timeout_s=watchdog_s)},
            expect_respawn=True,
        ),
        FaultScenario(
            name="quarantine",
            plan=FaultPlan.single(
                "transient", sweep=1, layer="layer0", times=50
            ),
            config_kwargs={"retry": RetryPolicy(retries=0)},
            expect_quarantine=True,
        ),
        FaultScenario(
            name="degrade",
            plan=FaultPlan.single("kill", sweep=1),
            config_kwargs={"retry": RetryPolicy(respawns=0)},
            expect_degrade=True,
        ),
    ]


def _run_sweeps(compressor: ModelCompressor, n_sweeps: int) -> dict:
    results: dict = {}
    for _ in range(n_sweeps):
        results = compressor.precluster()
    return results


def run_faults(
    n_layers: int = 4,
    in_features: int = 64,
    out_features: int = 48,
    workers: int = 2,
    seed: int = 0,
    scenarios: list[FaultScenario] | None = None,
    hang_seconds: float = 600.0,
    watchdog_s: float = 2.0,
) -> FaultBenchResult:
    """Run the chaos matrix and the kill-then-resume scenario.

    Every scenario's outputs are compared bit-for-bit against a serial
    run of the same sweep count over identically seeded weights; its
    fault log is reconciled against the plan; its shm blocks are probed
    after ``close()``.  The result carries per-scenario recovery rows
    plus the checkpoint/resume verdict.
    """
    if scenarios is None:
        scenarios = default_scenarios(
            hang_seconds=hang_seconds, watchdog_s=watchdog_s
        )
    result = FaultBenchResult(
        cpu_count=os.cpu_count() or 1,
        workers=workers,
        n_layers=n_layers,
        weights_per_layer=in_features * out_features,
    )

    # Every compressor of the run: identically seeded weights, one process
    # width (the serial references override it with num_workers=1).
    build = functools.partial(
        build_stack_compressor,
        [(in_features, out_features)] * n_layers,
        seed,
        num_workers=workers,
    )
    references: dict[int, tuple[str, dict]] = {}
    baselines: dict[int, float] = {}

    def reference(n_sweeps: int) -> tuple[str, dict]:
        if n_sweeps not in references:
            compressor = build(num_workers=1)
            results = _run_sweeps(compressor, n_sweeps)
            references[n_sweeps] = (_digest(results), _layer_stats(compressor))
        return references[n_sweeps]

    def baseline(n_sweeps: int) -> float:
        if n_sweeps not in baselines:
            compressor = build()
            start = time.perf_counter()
            _run_sweeps(compressor, n_sweeps)
            baselines[n_sweeps] = time.perf_counter() - start
            compressor.close()
        return baselines[n_sweeps]

    for scenario in scenarios:
        ref_digest, ref_stats = reference(scenario.sweeps)
        base_wall = baseline(scenario.sweeps)
        compressor = build(fault_plan=scenario.plan, **scenario.config_kwargs)
        shm_names: set[str] = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RobustnessWarning)
            start = time.perf_counter()
            results = {}
            for _ in range(scenario.sweeps):
                results = compressor.precluster()
                if compressor._engine is not None:
                    shm_names.update(compressor._engine.active_shm_names())
            wall = time.perf_counter() - start
        engine = compressor._engine
        respawns = engine.respawns if engine is not None else 0
        quarantined = len(engine.quarantined) if engine is not None else 0
        log = compressor.fault_log()
        faults_logged = log.count() if log is not None else 0
        log_reconciled = log is not None and all(
            log.count(kind) >= 1 for kind in scenario.kinds
        )
        if log is not None:
            result.fault_events.extend(
                dict(event, scenario=scenario.name)
                for event in log.to_json_dicts()
            )
        degraded_to = (
            compressor.active_backend
            if compressor.active_backend != "process"
            else None
        )
        stats = _layer_stats(compressor)
        compressor.close()
        expectation_met = (
            (not scenario.expect_respawn or respawns >= 1)
            and (not scenario.expect_quarantine or quarantined >= 1)
            and (not scenario.expect_degrade or degraded_to is not None)
        )
        result.rows.append(
            FaultRow(
                scenario=scenario.name,
                kinds=scenario.kinds,
                sweeps=scenario.sweeps,
                wall_seconds=wall,
                baseline_seconds=base_wall,
                bit_identical=ref_digest == _digest(results),
                stats_identical=ref_stats == stats,
                faults_logged=faults_logged,
                log_reconciled=log_reconciled,
                respawns=respawns,
                quarantined=quarantined,
                degraded_to=degraded_to,
                shm_cleaned=_all_unlinked(sorted(shm_names)),
                expectation_met=expectation_met,
            )
        )

    _run_resume_scenario(result, build)
    return result


def _run_resume_scenario(
    result: FaultBenchResult,
    build: Callable[[], ModelCompressor],
    n_sweeps: int = 3,
) -> None:
    """Kill-then-resume: checkpoint after sweep 1, resume, finish, compare.

    The "crash" is a hard process-engine teardown after
    ``save_checkpoint``; the resumed compressor is built fresh over
    identically seeded weights, exactly as a restarted job would be.
    """
    uninterrupted = build()
    try:
        ref_results = _run_sweeps(uninterrupted, n_sweeps)
        ref_stats = _layer_stats(uninterrupted)
    finally:
        uninterrupted.close()

    tmpdir = tempfile.mkdtemp(prefix="bench_faults_")
    path = os.path.join(tmpdir, "ckpt.json")
    try:
        first = build()
        try:
            first.precluster()
            result.checkpoint_digest = first.save_checkpoint(path)
        finally:
            first.close()  # the simulated crash

        resumed = build()
        try:
            payload = resumed.resume(path)
            result.resume_sweeps_completed = payload["sweeps_completed"]
            res_results = _run_sweeps(resumed, n_sweeps - 1)
            result.resume_bit_identical = _digest(ref_results) == _digest(
                res_results
            )
            result.resume_stats_identical = ref_stats == _layer_stats(resumed)
        finally:
            resumed.close()
    finally:
        for name in ("ckpt.json", "ckpt.json.journal"):
            stale = os.path.join(tmpdir, name)
            if os.path.exists(stale):
                os.unlink(stale)
        os.rmdir(tmpdir)


def run(quick: bool = False, seed: int = 0) -> FaultBenchResult:
    """``python -m repro.bench faults``; quick = smaller layers, tighter watchdog."""
    features = 48 if quick else 96
    return run_faults(
        in_features=features,
        out_features=features,
        seed=seed,
        watchdog_s=1.0 if quick else 2.0,
    )


__all__ = [
    "FaultBenchResult",
    "FaultRow",
    "FaultScenario",
    "default_scenarios",
    "run",
    "run_faults",
]
