"""Chaos-serving benchmark: the fault matrix under concurrent load.

Trains one small model, compresses it, and replays the same request
load through a matrix of injected serving faults (one scenario per
fault kind x client count), with clients that retry on the typed
:class:`~repro.serving.queue.StepFailed` crash boundary.  Four gates
make "survived" a checkable claim rather than a vibe:

- **token identity** -- every scenario's completions, including the
  runs where the watchdog revoked a hung loop or a palette kernel
  raised and its step was retried, must be *identical* to offline
  single-prompt :func:`repro.llm.generate.generate` on the same
  compressed weights;
- **fault reconciliation** -- every armed fault spec must have fired
  (its :class:`~repro.serving.faults.FaultEvent` appears in the
  injector's log), so a green run cannot mean "the chaos never
  happened";
- **no stranded futures** -- every client thread joins; a submitted
  request always resolves (text, or a typed error the client retried);
- **bounded shutdown** -- ``stop()`` returns within a fixed deadline
  in every scenario, including the hung-step one.

One extra scenario exercises draining shutdown (``stop(drain=True)``
finishes all in-flight requests bit-identically).

Wall times are recorded but not gated -- CI runners are noisy.
``python -m repro.bench serving_faults`` writes
``BENCH_serving_faults.json`` (schema: ``docs/benchmarks.md``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.core.compressor import ModelCompressor
from repro.core.config import DKMConfig
from repro.data import (
    FactWorld,
    corpus_batches,
    corpus_vocabulary,
    generate_corpus,
)
from repro.llm import (
    MICRO,
    FinetuneConfig,
    WordTokenizer,
    build_model,
    generate,
    train_causal_lm,
)
from repro.serving import (
    FaultPlan,
    FaultSpec,
    PaletteServer,
    RetryPolicy,
    ServingConfig,
    StepFailed,
)

import repro.tensor as rt

#: Every serving fault kind the matrix exercises, in display order.
CHAOS_KINDS = (
    "transient_step",
    "delay_step",
    "kernel_error",
    "corrupt_tile",
    "hang_step",
)

#: ``stop()`` must return within this many seconds in every scenario.
STOP_DEADLINE_S = 20.0

#: Ceiling on client-side retries per request (hit only on repeated
#: :class:`StepFailed`; anything past this strands the gate on purpose).
CLIENT_RETRIES = 8


@dataclass
class ChaosScenarioRow:
    """One fault scenario's survival evidence."""

    scenario: str
    kind: str | None
    clients: int
    submitted: int
    completed: int
    client_retries: int
    tokens_identical: bool
    stranded: bool
    stop_s: float
    wall_s: float
    fault_events: dict = field(default_factory=dict)
    unfired_specs: int = 0
    step_failures: int = 0
    step_retries: int = 0
    watchdog_kills: int = 0
    loop_respawns: int = 0
    completions: list[str] = field(default_factory=list)


@dataclass
class ChaosBenchResult:
    """Everything :func:`run_serving_faults` measured, JSON-serializable."""

    cpu_count: int = 0
    n_prompts: int = 0
    max_new_tokens: int = 0
    bits: int = 0
    client_matrix: list[int] = field(default_factory=list)
    rows: list[ChaosScenarioRow] = field(default_factory=list)
    offline_reference: list[str] = field(default_factory=list)
    drain_completed: int = 0
    drain_ok: bool = False

    def to_json_dict(self) -> dict:
        """The ``BENCH_serving_faults.json`` payload (``docs/benchmarks.md``)."""
        return {
            "benchmark": "serving_faults",
            "cpu_count": self.cpu_count,
            "n_prompts": self.n_prompts,
            "max_new_tokens": self.max_new_tokens,
            "bits": self.bits,
            "client_matrix": list(self.client_matrix),
            "rows": [asdict(row) for row in self.rows],
            "tokens_identical": all(r.tokens_identical for r in self.rows),
            "faults_reconciled": all(r.unfired_specs == 0 for r in self.rows),
            "no_stranded_futures": not any(r.stranded for r in self.rows),
            "shutdown_bounded": all(
                r.stop_s <= STOP_DEADLINE_S for r in self.rows
            ),
            "drain": {
                "completed": self.drain_completed,
                "ok": self.drain_ok,
            },
        }

    def render(self) -> str:
        payload = self.to_json_dict()
        lines = []
        for row in self.rows:
            events = ", ".join(
                f"{kind}x{count}" for kind, count in sorted(row.fault_events.items())
            )
            lines.append(
                f"{row.scenario:<22} clients={row.clients}  "
                f"completed={row.completed}/{row.submitted}  "
                f"retries={row.client_retries}  "
                f"identical={row.tokens_identical}  "
                f"stop={row.stop_s:.2f}s  "
                f"events=[{events or '-'}]"
            )
        lines.append(
            f"drain: completed={self.drain_completed}/{self.n_prompts} "
            f"ok={self.drain_ok}"
        )
        lines.append(
            f"tokens-identical={payload['tokens_identical']}  "
            f"faults-reconciled={payload['faults_reconciled']}  "
            f"no-stranded-futures={payload['no_stranded_futures']}  "
            f"shutdown-bounded={payload['shutdown_bounded']}  "
            f"cpu_count={self.cpu_count}"
        )
        return "\n".join(lines)

    def failures(self) -> list[str]:
        """Every violated survival gate, by scenario."""
        failures = []
        for row in self.rows:
            checks = [
                (row.tokens_identical,
                 "completions differ from the offline reference "
                 "(faults were not survived bit-identically)"),
                (not row.stranded,
                 "a client thread never joined -- a submitted request was stranded"),
                (not row.unfired_specs,
                 f"{row.unfired_specs} armed fault spec(s) never fired "
                 "(the chaos did not happen)"),
                (row.stop_s <= STOP_DEADLINE_S,
                 f"stop() took {row.stop_s:.2f}s (deadline {STOP_DEADLINE_S:.0f}s)"),
            ]
            failures += [f"{row.scenario}: {msg}" for ok, msg in checks if not ok]
        hang_rows = [r for r in self.rows if r.kind == "hang_step"]
        kernel_rows = [r for r in self.rows if r.kind == "kernel_error"]
        checks = [
            (all(r.step_retries >= r.fault_events.get("kernel_error", 0) > 0
                 for r in kernel_rows),
             "a kernel_error scenario did not retry every firing "
             "(kernel faults went unnoticed)"),
            (self.drain_ok,
             "stop(drain=True) did not finish all in-flight requests "
             "bit-identically within the deadline"),
            (not hang_rows or any(r.watchdog_kills for r in hang_rows),
             "hang_step scenario ran without a watchdog kill "
             "(the hang was not injected or not detected)"),
        ]
        return failures + [message for ok, message in checks if not ok]


def _train_small_model(sentences: int, epochs: int, seed: int):
    """One briefly fine-tuned MICRO model plus its tokenizer and corpus."""
    world = FactWorld(seed=seed)
    tokenizer = WordTokenizer(corpus_vocabulary(world))
    corpus = generate_corpus(world, sentences, seed=seed + 1)
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=seed)
    model.to(rt.GPU)
    train_causal_lm(
        model,
        corpus_batches(corpus, tokenizer, 16, rt.GPU, epochs=epochs, seed=seed + 2),
        FinetuneConfig(lr=3e-3),
    )
    model.eval()
    return model, tokenizer, corpus


def _plan_for(kind: str, seed: int) -> FaultPlan:
    """A deterministic single-kind plan tuned so the run survives it.

    ``corrupt_tile`` waits for step 2 so the layer weight it poisons
    is resident; ``hang_step`` sleeps far past the watchdog so only
    the revocation path can unwedge it.
    """
    if kind == "transient_step":
        spec = FaultSpec(kind=kind, sweep=1, times=2)
    elif kind == "delay_step":
        spec = FaultSpec(kind=kind, sweep=1, times=2, seconds=0.05)
    elif kind == "kernel_error":
        spec = FaultSpec(kind=kind, sweep=1, times=2)
    elif kind == "corrupt_tile":
        spec = FaultSpec(kind=kind, sweep=2, times=1)
    elif kind == "hang_step":
        spec = FaultSpec(kind=kind, sweep=1, times=1, seconds=30.0)
    else:  # pragma: no cover - matrix is fixed above
        raise ValueError(f"unknown chaos kind {kind!r}")
    return FaultPlan(specs=(spec,), seed=seed)


def _config_for(
    kind: str, plan: FaultPlan, max_new_tokens: int
) -> ServingConfig:
    """Serving knobs for one matrix cell: ``hang_step`` arms the watchdog.

    Every cell keeps the default ``retry.retries`` (2), so a spec firing
    ``times=2`` on one step is retried twice and the step still succeeds.
    """
    return ServingConfig(
        max_batch_size=4,
        max_queue_depth=64,
        max_new_tokens=max_new_tokens,
        fault_plan=plan,
        retry=RetryPolicy(
            timeout_s=0.25 if kind == "hang_step" else None,
            backoff_s=0.005,
        ),
    )


def _drive_chaos(
    server: PaletteServer,
    prompts: list[str],
    max_new_tokens: int,
    clients: int,
    timeout: float = 120.0,
) -> tuple[list[str | None], int, bool]:
    """Drive the load with clients that retry on :class:`StepFailed`.

    Returns ``(texts_in_prompt_order, total_client_retries, stranded)``
    where ``stranded`` is True if any client thread failed to join --
    the exact symptom of a future that never resolved.
    """
    results: list[str | None] = [None] * len(prompts)
    retries = [0] * len(prompts)
    errors: list[BaseException] = []

    def client(indices: list[int]) -> None:
        for i in indices:
            for _attempt in range(CLIENT_RETRIES + 1):
                try:
                    results[i] = server.generate(
                        prompts[i], max_new_tokens=max_new_tokens, timeout=timeout
                    )
                    break
                except StepFailed:
                    retries[i] += 1
                except BaseException as exc:  # surfaced to the caller below
                    errors.append(exc)
                    return

    threads = [
        threading.Thread(
            target=client,
            args=(list(range(c, len(prompts), clients)),),
            name=f"chaos-client-{c}",
        )
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout + 30.0
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    stranded = any(t.is_alive() for t in threads)
    if errors and not stranded:
        raise errors[0]
    return results, sum(retries), stranded


def _reconcile_faults(
    server: PaletteServer, plan: FaultPlan | None
) -> tuple[dict, int]:
    """Count logged fault events per kind; report specs that never fired."""
    events: dict[str, int] = {}
    if server.fault_injector is not None:
        for event in server.fault_injector.log.events:
            events[event.kind] = events.get(event.kind, 0) + 1
    unfired = 0
    if plan is not None:
        for spec in plan.specs:
            if events.get(spec.kind, 0) < 1:
                unfired += 1
    return events, unfired


def _run_chaos_scenario(
    name: str,
    kind: str | None,
    clients: int,
    model,
    tokenizer,
    prompts: list[str],
    reference: list[str],
    config: ServingConfig,
    max_new_tokens: int,
) -> ChaosScenarioRow:
    """One matrix cell: serve the load under the plan, then reconcile."""
    server = PaletteServer(model, tokenizer, config=config)
    server.start()
    started = time.monotonic()
    try:
        texts, client_retries, stranded = _drive_chaos(
            server, prompts, max_new_tokens, clients
        )
    finally:
        stop_started = time.monotonic()
        server.stop()
        stop_s = time.monotonic() - stop_started
    wall_s = time.monotonic() - started
    report = server.stats()
    events, unfired = _reconcile_faults(server, config.fault_plan)
    completions = [t for t in texts if t is not None]
    return ChaosScenarioRow(
        scenario=name,
        kind=kind,
        clients=clients,
        submitted=len(prompts),
        completed=len(completions),
        client_retries=client_retries,
        tokens_identical=(texts == reference),
        stranded=stranded,
        stop_s=stop_s,
        wall_s=wall_s,
        fault_events=events,
        unfired_specs=unfired,
        step_failures=report.step_failures,
        step_retries=report.step_retries,
        watchdog_kills=report.watchdog_kills,
        loop_respawns=report.loop_respawns,
        completions=completions,
    )


def run_serving_faults(
    n_prompts: int = 4,
    max_new_tokens: int = 6,
    bits: int = 4,
    sentences: int = 400,
    epochs: int = 2,
    client_matrix: tuple[int, ...] = (1, 4),
    seed: int = 0,
) -> ChaosBenchResult:
    """Run the chaos-serving matrix end to end, fixed seed.

    Trains one model, computes the offline reference on a fresh
    compressed copy of its weights, then replays the identical prompt
    set through every (fault kind x client count) cell plus the
    draining-shutdown scenario.  Every scenario gets a fresh model
    loaded from the trained one, so corrupted weights never leak
    between cells.
    """
    result = ChaosBenchResult(
        cpu_count=os.cpu_count() or 1,
        n_prompts=n_prompts,
        max_new_tokens=max_new_tokens,
        bits=bits,
        client_matrix=list(client_matrix),
    )
    base_model, tokenizer, corpus = _train_small_model(sentences, epochs, seed)
    state = base_model.state_dict()
    prompts = [
        " ".join(corpus[i % len(corpus)].split()[:3]) for i in range(n_prompts)
    ]

    def fresh_model():
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=seed)
        model.to(rt.GPU)
        model.load_state_dict(state)
        ModelCompressor(DKMConfig(bits=bits)).compress(model)
        model.eval()
        return model

    result.offline_reference = [
        generate(fresh_model(), tokenizer, p, max_new_tokens=max_new_tokens)
        for p in prompts
    ]
    reference = result.offline_reference

    # --- the fault matrix -------------------------------------------------
    for kind in CHAOS_KINDS:
        for clients in client_matrix:
            plan = _plan_for(kind, seed)
            config = _config_for(kind, plan, max_new_tokens)
            result.rows.append(
                _run_chaos_scenario(
                    f"{kind}-c{clients}",
                    kind,
                    clients,
                    fresh_model(),
                    tokenizer,
                    prompts,
                    reference,
                    config,
                    max_new_tokens,
                )
            )

    # --- draining shutdown: stop(drain=True) finishes in-flight ----------
    config = ServingConfig(max_batch_size=2, max_new_tokens=max_new_tokens)
    server = PaletteServer(fresh_model(), tokenizer, config=config)
    server.start()
    requests = [
        server.submit(p, max_new_tokens=max_new_tokens) for p in prompts
    ]
    stop_started = time.monotonic()
    server.stop(drain=True)
    stop_s = time.monotonic() - stop_started
    drained: list[str | None] = []
    for request in requests:
        try:
            drained.append(request.result(timeout=1.0))
        except Exception:
            drained.append(None)
    report = server.stats()
    result.drain_completed = sum(1 for t in drained if t is not None)
    result.drain_ok = drained == reference and stop_s <= STOP_DEADLINE_S
    result.rows.append(
        ChaosScenarioRow(
            scenario="drain-shutdown",
            kind=None,
            clients=1,
            submitted=len(prompts),
            completed=result.drain_completed,
            client_retries=0,
            tokens_identical=(drained == reference),
            stranded=False,
            stop_s=stop_s,
            wall_s=report.wall_s,
            completions=[t for t in drained if t is not None],
        )
    )
    return result


def run(quick: bool = False, seed: int = 0) -> ChaosBenchResult:
    """``python -m repro.bench serving_faults``; quick = smaller corpus, one client count."""
    if quick:
        return run_serving_faults(
            max_new_tokens=4, sentences=120, epochs=1, client_matrix=(4,), seed=seed
        )
    return run_serving_faults(seed=seed)
