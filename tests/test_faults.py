"""Fault-plan, retry-backoff and injector tests (see
``repro/serving/faults.py`` and ``docs/robustness.md``).

The contract under test: a :class:`FaultSpec` is validated on
construction, ``ServingConfig`` accepts only a :class:`FaultPlan`, its
``backoff_s`` validates and doubles per re-attempt, and for a fixed
(plan, layer-name sequence) the injector fires the same faults at the
same points on every run.  The server's recoveries under those faults
are tested in ``tests/test_serving_faults.py``.
"""

import dataclasses
import importlib
from unittest import mock

import pytest

import repro.core
import repro.serving
import repro.serving.batcher as batcher_mod
import repro.serving.server as server_mod
from repro.llm import MICRO, build_model
from repro.serving import (
    CorruptTileError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PaletteKernelError,
    PaletteServer,
    ServingConfig,
    TransientStepError,
)
from repro.serving.faults import (
    DELAY_STEP_S,
    FAULT_KINDS,
    STEP_TARGET,
    _seeded_index,
)

#: The fault names that live in ``repro.serving`` alone.
SERVING_FAULT_NAMES = (
    "FAULT_KINDS", "FaultEvent", "FaultInjector", "FaultLog", "FaultPlan",
    "FaultSpec",
)


class TestFaultMachineryHome:
    def test_serving_exports_and_core_does_not(self):
        for name in SERVING_FAULT_NAMES:
            assert name in repro.serving.__all__, name
            assert not hasattr(repro.core, name), name
            assert name not in repro.core.__all__, name

    def test_no_core_faults_module(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.faults")

    @pytest.mark.parametrize("error", [PaletteKernelError, CorruptTileError])
    def test_palette_errors_are_transient_step_errors(self, error):
        """The one ``except TransientStepError`` arm of the step loop
        retries every palette-path failure."""
        assert issubclass(error, TransientStepError)
        exc = error("layers.0.mlp")
        assert exc.layer == "layers.0.mlp"
        assert "layers.0.mlp" in str(exc)


class TestFaultPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meteor")

    def test_zero_based_sweep_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            FaultSpec(kind="kernel_error", sweep=0)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind="kernel_error", times=0)

    @pytest.mark.parametrize("field", ["layer", "seconds"])
    def test_spec_has_no_layer_or_seconds(self, field):
        """A spec is ``kind``, ``sweep`` and ``times``: layer-scoped kinds
        take the seeded layer pick, and every ``delay_step`` naps
        :data:`DELAY_STEP_S`."""
        assert [f.name for f in dataclasses.fields(FaultSpec)] == [
            "kind", "sweep", "times"
        ]
        with pytest.raises(TypeError, match=field):
            FaultSpec(kind="delay_step", **{field: "lm_head"})

    def test_delay_defaults_to_the_chaos_nap(self):
        """A ``delay_step`` naps on the thread that steps the server, so
        its nap is the chaos matrix's short one."""
        assert DELAY_STEP_S == 0.05

    @pytest.mark.parametrize(
        "kind",
        ["kill", "hang", "delay", "transient", "corrupt_delta", "drop_shm", "hang_step"],
    )
    def test_retired_compression_kinds_are_unknown(self, kind):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind=kind)

    def test_spec_has_no_op_filter(self):
        """Every fault point is a decode step, so a spec names no op."""
        with pytest.raises(TypeError, match="op"):
            FaultSpec(kind="kernel_error", op="decode")

    def test_serving_config_rejects_a_non_plan(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            ServingConfig(fault_plan=[FaultSpec(kind="kernel_error")])


class TestRetryPolicy:
    """The retry policy is ``ServingConfig.backoff_s``: no nested policy
    object, no watchdog deadline."""

    def test_validation(self):
        with pytest.raises(ValueError, match="backoff_s"):
            ServingConfig(backoff_s=-0.1)
        assert not hasattr(repro.serving, "RetryPolicy")

    def test_server_defaults(self):
        assert ServingConfig().backoff_s == 0.02
        with pytest.raises(TypeError, match="retry"):
            ServingConfig(retry=None)

    def test_backoff_doubles_per_attempt(self, tokenizer, monkeypatch):
        """Re-attempt ``n`` of a step sleeps ``backoff_s * 2**(n - 1)``."""
        monkeypatch.setattr(server_mod, "STEP_RETRIES", 3)
        real, calls = batcher_mod.decode_step, []

        def failing(model, ids, caches, device=None):
            calls.append(len(ids))
            if len(calls) <= 3:
                raise TransientStepError("step")
            return real(model, ids, caches, device=device)

        monkeypatch.setattr(batcher_mod, "decode_step", failing)
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
        sleeps = []
        with PaletteServer(model, tokenizer, ServingConfig(backoff_s=0.02)) as server:
            with mock.patch.object(server_mod.time, "sleep", sleeps.append):
                server.generate("alice lives in", max_new_tokens=1)
            report = server.stats()
        assert sleeps == [0.02, 0.04, 0.08]
        assert (report.step_retries, report.step_failures) == (3, 0)


class TestInjectorDeterminism:
    def test_unpinned_layer_resolves_identically_across_runs(self):
        plan = FaultPlan([FaultSpec("kernel_error", sweep=2)])
        names = [f"layer{i}" for i in range(6)]
        picks = []
        for _ in range(3):
            injector = FaultInjector(plan)
            injector.begin(2, names)
            fired = [n for n in names if injector.fire("kernel_error", n)]
            picks.append(fired)
        assert picks[0] == picks[1] == picks[2]
        assert len(picks[0]) == 1

    @pytest.mark.parametrize("kind", ["kernel_error", "corrupt_tile"])
    def test_unpinned_layer_resolves_to_seeded_index(self, kind):
        """One pick rule for every layer-scoped kind: the target is
        ``names[_seeded_index(seed, spec index, sweep, len(names))]``."""
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="delay_step", sweep=9),
                FaultSpec(kind=kind, sweep=3),
            ),
            seed=11,
        )
        names = [f"layers.{i}.mlp" for i in range(7)]
        target = names[_seeded_index(11, 1, 3, len(names))]
        injector = FaultInjector(plan)
        injector.begin(3, names)
        assert [n for n in names if injector.fire(kind, n)] == [target]
        assert [(e.kind, e.sweep, e.layer) for e in injector.log.events] == [
            (kind, 3, target)
        ]

    def test_times_budget_is_consumed(self):
        plan = FaultPlan([FaultSpec("kernel_error", sweep=1, times=2)])
        names = ["a", "b"]
        target = names[_seeded_index(0, 0, 1, len(names))]
        injector = FaultInjector(plan)
        injector.begin(1, names)
        assert injector.fire("kernel_error", target) is not None
        assert injector.fire("kernel_error", target) is not None
        assert injector.fire("kernel_error", target) is None
        assert len(injector.log) == 2

    def test_wrong_sweep_or_layer_never_fires(self):
        plan = FaultPlan(specs=(FaultSpec(kind="kernel_error", sweep=2),))
        injector = FaultInjector(plan)
        injector.begin(1, ["a"])
        assert injector.fire("kernel_error", "a") is None  # before its step
        injector.begin(2, ["a"])
        assert injector.fire("kernel_error", "b") is None  # wrong layer
        injector.begin(3, ["a"])
        assert injector.fire("kernel_error", "a") is not None  # fires from its step on

    def test_step_scoped_kinds_target_the_step(self):
        spec = FaultSpec("delay_step", sweep=1)
        injector = FaultInjector(FaultPlan([spec]))
        injector.begin(1, ["layers.0.mlp"])
        assert injector.fire("delay_step", "layers.0.mlp") is None
        assert injector.fire("delay_step", STEP_TARGET) is spec


LAYER_KINDS = sorted(k for k, scope in FAULT_KINDS.items() if scope == "layer")
STEP_KINDS = sorted(k for k, scope in FAULT_KINDS.items() if scope == "step")
NAMES = ["layers.0.mlp", "layers.1.mlp", "lm_head"]


class TestEveryKind:
    """Each of the four serving kinds, one at a time."""

    def test_kinds_are_the_four_serving_kinds(self):
        """Four since ``hang_step`` left with the step watchdog."""
        assert LAYER_KINDS == ["corrupt_tile", "kernel_error"]
        assert STEP_KINDS == ["delay_step", "transient_step"]

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_arms_the_server(self, kind):
        plan = FaultPlan([FaultSpec(kind, sweep=2)])
        assert ServingConfig(fault_plan=plan).fault_plan is plan

    @pytest.mark.parametrize("kind", STEP_KINDS)
    def test_step_kind_ignores_the_seeded_layer(self, kind):
        target = NAMES[_seeded_index(0, 0, 1, len(NAMES))]
        injector = FaultInjector(FaultPlan([FaultSpec(kind, sweep=1)]))
        injector.begin(1, NAMES)
        assert injector.fire(kind, target) is None
        assert injector.fire(kind, STEP_TARGET) is not None
        assert [e.layer for e in injector.log.events] == [STEP_TARGET]

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_layer_kind_fires_only_on_its_seeded_layer(self, kind):
        target = NAMES[_seeded_index(0, 0, 1, len(NAMES))]
        injector = FaultInjector(FaultPlan([FaultSpec(kind, sweep=1)]))
        injector.begin(1, NAMES)
        assert injector.fire(kind, STEP_TARGET) is None
        assert [n for n in NAMES if injector.fire(kind, n)] == [target]

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_unpinned_layer_kind_waits_for_layers(self, kind):
        """A step with no layers resolves no target: the spec stays armed
        and fires at the first step that has one."""
        injector = FaultInjector(FaultPlan([FaultSpec(kind, sweep=1)]))
        injector.begin(1, [])
        assert injector.fire(kind, STEP_TARGET) is None
        assert len(injector.log) == 0
        injector.begin(2, NAMES)
        assert [n for n in NAMES if injector.fire(kind, n)] != []
        assert len(injector.log) == 1

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_event_detail(self, kind):
        injector = FaultInjector(FaultPlan([FaultSpec(kind, sweep=1, times=3)]))
        injector.begin(1, NAMES)
        targets = [STEP_TARGET] if kind in STEP_KINDS else NAMES
        assert any(injector.fire(kind, target) for target in targets)
        (event,) = injector.log.events
        expected = "0.05s" if kind == "delay_step" else "firing 3 time(s)"
        assert (event.kind, event.sweep, event.detail) == (kind, 1, expected)

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_no_other_kind_fires_on_its_spec(self, kind):
        injector = FaultInjector(FaultPlan([FaultSpec(kind, sweep=1, times=5)]))
        injector.begin(1, NAMES)
        for other in FAULT_KINDS:
            if other == kind:
                continue
            for target in [STEP_TARGET, *NAMES]:
                assert injector.fire(other, target) is None
        assert len(injector.log) == 0


class TestFaultLog:
    def test_log_records_each_firing_by_kind(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="transient_step", sweep=1, times=2),
                FaultSpec(kind="delay_step", sweep=1),
            )
        )
        injector = FaultInjector(plan)
        injector.begin(1, NAMES)
        injector.fire("transient_step", STEP_TARGET)
        injector.fire("transient_step", STEP_TARGET)
        injector.fire("delay_step", STEP_TARGET)
        log = injector.log
        assert len(log) == 3
        assert [event.kind for event in log.events] == [
            "transient_step", "transient_step", "delay_step"
        ]


class TestSeededIndex:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_in_range_and_stable(self, n):
        picks = [_seeded_index(seed, 0, 1, n) for seed in range(50)]
        assert all(0 <= pick < n for pick in picks)
        assert picks == [_seeded_index(seed, 0, 1, n) for seed in range(50)]

    def test_empty_name_list_picks_zero(self):
        assert _seeded_index(5, 1, 2, 0) == 0
