"""Chaos-engineering tests (see ``repro/core/faults.py`` and
``docs/robustness.md``).

The contract under test: every injectable fault -- worker kill, hang,
delay, transient exception, corrupted delta payload, dropped shm block --
is survived by the process engine with results (centroids, stats
counters) *bit-identical* to an undisturbed serial run; retries exhaust
into in-parent fallback and poison-layer quarantine; the respawn budget
exhausts into graceful demotion to the serial loop; and a hung worker is put
down within the watchdog deadline instead of blocking the sweep forever.
"""

import dataclasses
import pickle
import subprocess
import sys
import warnings
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    CompressorConfig,
    DKMConfig,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ModelCompressor,
    PoolExhausted,
    ProcessLayerEngine,
    RetryPolicy,
    RobustnessWarning,
)
from repro.core.faults import STEP_TARGET, _seeded_index
from repro.serving import ServingConfig
from repro.tensor.serialization import ShmLost


class _Stack(nn.Module):
    def __init__(self, n_layers=4, in_f=32, out_f=24, seed=0):
        super().__init__()
        for i in range(n_layers):
            setattr(
                self,
                f"layer{i}",
                nn.Linear(in_f, out_f, bias=False, rng=np.random.default_rng(seed + i)),
            )


def _compressor(num_workers=2, n_layers=4, seed=0, **config_kwargs):
    stack = _Stack(n_layers=n_layers, seed=seed)
    stack.to("gpu")
    compressor = ModelCompressor(
        DKMConfig(bits=3, iters=3),
        config=CompressorConfig(num_workers=num_workers, **config_kwargs),
    )
    compressor.compress(stack)
    return compressor, stack


def _stats(compressor):
    return {
        name: dataclasses.asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


def _run_sweeps(compressor, n_sweeps=2):
    """A fixed two-sweep history; returns the final per-layer centroids."""
    results = None
    for _ in range(n_sweeps):
        results = compressor.precluster()
    return {name: result.centroids for name, result in results.items()}


class TestFaultPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meteor")

    def test_zero_based_sweep_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            FaultSpec(kind="kill", sweep=0)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind="kill", times=0)

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec(kind="hang", seconds=-1.0)

    def test_compressor_config_rejects_serving_kinds(self):
        # A serving kind armed on the compression engine used to be
        # accepted and then never fire: no engine probe asks for it.
        plan = FaultPlan.single("kernel_error")
        with pytest.raises(ValueError, match="'kernel_error'.*serving engine"):
            CompressorConfig(num_workers=2, fault_plan=plan)

    def test_compressor_config_rejects_plan_on_serial_loop(self):
        # The serial loop has no workers to fault: a plan armed there used
        # to run clean and log nothing.
        with pytest.raises(ValueError, match="num_workers"):
            CompressorConfig(fault_plan=FaultPlan.single("kill"))

    def test_serving_config_rejects_compression_kinds(self):
        plan = FaultPlan(specs=(FaultSpec(kind="kill"),))
        with pytest.raises(ValueError, match="'kill'.*compression engine"):
            ServingConfig(fault_plan=plan)


class TestRetryPolicy:
    def test_validation(self):
        for bad, field in (
            (dict(timeout_s=0.0), "timeout_s"),
            (dict(retries=-1), "retries"),
            (dict(backoff_s=-0.1), "backoff_s"),
            (dict(respawns=-1), "respawns"),
        ):
            with pytest.raises(ValueError, match=field):
                RetryPolicy(**bad)

    def test_engine_defaults(self):
        assert CompressorConfig().retry == RetryPolicy(None, 2, 0.05, 8)
        assert ServingConfig().retry == RetryPolicy(None, 2, 0.02, 4)

    def test_backoff_doubles_per_attempt(self):
        policy = RetryPolicy(backoff_s=0.02)
        assert [policy.backoff(n) for n in (1, 2, 3)] == [0.02, 0.04, 0.08]

    @pytest.mark.parametrize("cls", [CompressorConfig, ServingConfig])
    def test_round_trips_as_nested_dict(self, cls):
        config = cls(retry=RetryPolicy(timeout_s=1.5, retries=3, backoff_s=0.0))
        payload = config.to_dict()
        assert payload["retry"] == {
            "timeout_s": 1.5, "retries": 3, "backoff_s": 0.0, "respawns": 8,
        }
        assert cls.from_dict(payload) == config
        payload["retry"]["max_retries"] = 1
        with pytest.raises(ValueError, match="unknown RetryPolicy keys"):
            cls.from_dict(payload)


class TestInjectorDeterminism:
    def test_unpinned_layer_resolves_identically_across_runs(self):
        plan = FaultPlan.single("kill", sweep=2)
        names = [f"layer{i}" for i in range(6)]
        picks = []
        for _ in range(3):
            injector = FaultInjector(plan)
            injector.begin(2, names, "refine")
            fired = [n for n in names if injector.fire("kill", n)]
            picks.append(fired)
        assert picks[0] == picks[1] == picks[2]
        assert len(picks[0]) == 1

    @pytest.mark.parametrize("kind", ["kill", "kernel_error"])
    def test_unpinned_layer_resolves_to_seeded_index(self, kind):
        """One injector, one pick rule: compression and serving kinds alike
        target ``names[_seeded_index(seed, spec index, sweep, len(names))]``."""
        plan = FaultPlan(
            specs=(FaultSpec(kind="delay", sweep=9), FaultSpec(kind=kind, sweep=3)),
            seed=11,
        )
        names = [f"layers.{i}.mlp" for i in range(7)]
        target = names[_seeded_index(11, 1, 3, len(names))]
        injector = FaultInjector(plan)
        injector.begin(3, names, "decode")
        assert [n for n in names if injector.fire(kind, n)] == [target]
        assert [(e.kind, e.sweep, e.layer) for e in injector.log.events] == [
            (kind, 3, target)
        ]

    def test_times_budget_is_consumed(self):
        plan = FaultPlan.single("transient", sweep=1, layer="a", times=2)
        injector = FaultInjector(plan)
        injector.begin(1, ["a", "b"], "refine")
        assert injector.fire("transient", "a") is not None
        assert injector.fire("transient", "a") is not None
        assert injector.fire("transient", "a") is None
        assert injector.log.count("transient") == 2

    def test_wrong_sweep_op_or_layer_never_fires(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="kill", sweep=2, layer="a", op="refine"),)
        )
        injector = FaultInjector(plan)
        injector.begin(1, ["a"], "refine")
        assert injector.fire("kill", "a") is None  # wrong sweep
        injector.begin(2, ["a"], "palettize")
        assert injector.fire("kill", "a") is None  # wrong op
        injector.begin(3, ["a"], "refine")
        assert injector.fire("kill", "a") is None  # compression fires "at"
        injector.begin(2, ["a"], "refine")
        assert injector.fire("kill", "b") is None  # wrong layer
        assert injector.fire("kill", "a") is not None

    def test_step_scoped_kinds_target_the_step(self):
        injector = FaultInjector(FaultPlan.single("hang_step", sweep=1, seconds=2.0))
        injector.begin(1, ["layers.0.mlp"], "decode")
        assert injector.fire("hang_step", "layers.0.mlp") is None
        assert injector.fire("hang_step", STEP_TARGET).seconds == 2.0


class TestFaultRecoveryBitIdentity:
    """Every injected fault is survived bit-identically to a serial run."""

    def _chaos_run(self, plan, n_sweeps=2, **config_kwargs):
        chaotic, _ = _compressor(fault_plan=plan, **config_kwargs)
        serial, _ = _compressor(num_workers=1)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RobustnessWarning)
                chaos_result = _run_sweeps(chaotic, n_sweeps)
            serial_result = _run_sweeps(serial, n_sweeps)
            for name in serial_result:
                assert np.array_equal(serial_result[name], chaos_result[name]), name
            assert _stats(serial) == _stats(chaotic)
            assert chaotic.fault_log() is not None
            assert chaotic.fault_log().count() >= 1
        finally:
            chaotic.close()
        return chaotic

    def test_worker_kill_recovers(self):
        chaotic = self._chaos_run(FaultPlan.single("kill", sweep=1))
        assert chaotic._engine.respawns >= 1

    def test_kill_mid_warm_run_recovers(self):
        # Sweep 2 ships deltas; the kill forces respawn + full re-ship of
        # a slot whose layers were resident.
        self._chaos_run(FaultPlan.single("kill", sweep=2))

    def test_transient_error_retried_in_place(self):
        chaotic = self._chaos_run(
            FaultPlan.single("transient", sweep=1),
            retry=RetryPolicy(backoff_s=0.001),
        )
        assert chaotic._engine.respawns == 0  # retried, never respawned

    def test_delay_within_deadline_is_harmless(self):
        chaotic = self._chaos_run(
            FaultPlan.single("delay", sweep=1, seconds=0.2),
            retry=RetryPolicy(timeout_s=30.0),
        )
        assert chaotic._engine.respawns == 0

    def test_corrupt_delta_detected_and_reshipped(self):
        # Deltas only ship from sweep 2 on; the digest check must catch
        # the corruption and re-ship full rather than diverge silently.
        chaotic = self._chaos_run(FaultPlan.single("corrupt_delta", sweep=2))
        assert chaotic.fault_log().count("corrupt_delta") == 1

    def test_dropped_shm_block_reexported(self):
        chaotic = self._chaos_run(FaultPlan.single("drop_shm", sweep=2), n_sweeps=3)
        assert chaotic.fault_log().count("drop_shm") == 1

    def test_multi_fault_plan_same_run(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="kill", sweep=1),
                FaultSpec(kind="transient", sweep=2),
                FaultSpec(kind="corrupt_delta", sweep=3),
            )
        )
        self._chaos_run(plan, n_sweeps=3, retry=RetryPolicy(backoff_s=0.001))


class TestWatchdog:
    @pytest.mark.timeout(120)
    def test_hung_worker_killed_within_deadline(self):
        """A worker napping far past ``retry.timeout_s`` is put down, the
        slot respawned, and the sweep completes bit-identically -- well
        before the hang's nominal duration."""
        plan = FaultPlan.single("hang", sweep=1, seconds=600.0)
        chaotic, _ = _compressor(fault_plan=plan, retry=RetryPolicy(timeout_s=1.0))
        serial, _ = _compressor(num_workers=1)
        try:
            chaos_result = _run_sweeps(chaotic)
            serial_result = _run_sweeps(serial)
            for name in serial_result:
                assert np.array_equal(serial_result[name], chaos_result[name]), name
            assert _stats(serial) == _stats(chaotic)
            assert chaotic._engine.respawns >= 1
            assert chaotic.fault_log().count("hang") == 1
        finally:
            chaotic.close()


class TestQuarantine:
    def test_persistent_failure_quarantines_layer(self):
        """A fault that outlives the retry budget falls back in-parent and
        quarantines the layer; results stay bit-identical throughout."""
        plan = FaultPlan.single(
            "transient", sweep=1, layer="layer0", times=50
        )
        chaotic, _ = _compressor(fault_plan=plan, retry=RetryPolicy(retries=0))
        serial, _ = _compressor(num_workers=1)
        try:
            with pytest.warns(RobustnessWarning, match="quarantin"):
                chaos_result = _run_sweeps(chaotic, 1)
            assert "layer0" in chaotic._engine.quarantined
            # Sweep 2: the quarantined layer runs in-parent, the rest in
            # workers; everything still matches serial, counters included.
            chaos_result = _run_sweeps(chaotic, 1)
            serial_result = _run_sweeps(serial, 2)
            for name in serial_result:
                assert np.array_equal(serial_result[name], chaos_result[name]), name
            assert _stats(serial) == _stats(chaotic)
            assert chaotic.fault_log().count("transient") == 1
        finally:
            chaotic.close()

    def test_quarantine_fires_at_retries_plus_one_fallbacks(self):
        """With ``retries=1`` each failing sweep ships twice and falls back
        once; the layer is quarantined at its second fallback, not its first."""
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="transient", sweep=1, layer="layer0", times=2),
                FaultSpec(kind="transient", sweep=2, layer="layer0", times=2),
            )
        )
        chaotic, _ = _compressor(
            fault_plan=plan,
            retry=RetryPolicy(retries=1, backoff_s=0.001),
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RobustnessWarning)
                _run_sweeps(chaotic, 1)
            assert "layer0" not in chaotic._engine.quarantined
            with pytest.warns(RobustnessWarning, match="failed 2 shipped batches"):
                _run_sweeps(chaotic, 1)
            assert "layer0" in chaotic._engine.quarantined
            assert chaotic.fault_log().count("transient") == 4
        finally:
            chaotic.close()


class TestDegradation:
    def test_pool_exhaustion_degrades_to_serial(self):
        """With a zero respawn budget, the first kill exhausts the pool and
        the compressor demotes process -> serial instead of failing."""
        plan = FaultPlan.single("kill", sweep=1)
        chaotic, _ = _compressor(fault_plan=plan, retry=RetryPolicy(respawns=0))
        serial, _ = _compressor(num_workers=1)
        try:
            with pytest.warns(RobustnessWarning, match="degrading"):
                chaos_result = _run_sweeps(chaotic)
            serial_result = _run_sweeps(serial)
            assert chaotic.active_backend == "serial"
            assert len(chaotic.degradations) == 1
            assert chaotic.degradations[0][0] == "process"
            assert chaotic.degradations[0][1] == "serial"
            for name in serial_result:
                assert np.array_equal(serial_result[name], chaos_result[name]), name
            assert _stats(serial) == _stats(chaotic)
        finally:
            chaotic.close()

    def test_engine_raises_pool_exhausted(self):
        """The engine itself never absorbs a spent respawn budget: it
        resets (no block left linked) and raises for the compressor's
        demotion to answer."""
        config = CompressorConfig(
            num_workers=2,
            retry=RetryPolicy(respawns=0),
            fault_plan=FaultPlan.single("kill", sweep=1),
        )
        compressor, _ = _compressor(num_workers=1)
        layers = [
            (name, wrapper.clusterer, wrapper.inner.weight)
            for name, wrapper in compressor.wrapped.items()
        ]
        with ProcessLayerEngine(config) as engine:
            with pytest.raises(PoolExhausted, match="retry.respawns=0"):
                engine.map_layers("precluster", layers)
            assert engine.respawns == 1
            assert engine.active_shm_names() == []


class TestShmLost:
    def test_typed_and_picklable(self):
        err = ShmLost("repro_gone_block")
        assert isinstance(err, FileNotFoundError)
        assert err.shm_name == "repro_gone_block"
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ShmLost)
        assert clone.shm_name == "repro_gone_block"

    def test_raised_on_attach_to_missing_block(self):
        from repro.tensor.serialization import ShmTensorHandle, attach_tensor_shm

        handle = ShmTensorHandle(
            shm_name="repro_never_created",
            dtype_name="float32",
            storage_numel=4,
            shape=(4,),
            strides=(1,),
            offset=0,
            version=0,
        )
        with pytest.raises(ShmLost) as info:
            attach_tensor_shm(handle)
        assert info.value.shm_name == "repro_never_created"


class TestResetDoubleFault:
    def test_reset_survives_failing_export_close(self):
        """Satellite regression: one export whose close() raises must not
        leak the other blocks or leave the engine dicts dirty (the seed
        teardown aborted its cleanup loop on the first failure)."""
        process, _ = _compressor()
        process.precluster()
        engine = process._engine
        exports = list(engine._state["exports"].values())
        assert len(exports) > 1
        sabotaged, survivors = exports[0], exports[1:]
        survivor_names = [export.name for export in survivors]
        original_close = sabotaged.close

        def _explode():
            raise OSError("injected close failure")

        sabotaged.close = _explode
        engine.reset()  # must not propagate the OSError
        assert engine._state["exports"] == {}
        assert engine._state["export_refs"] == {}
        assert engine._sync == {}
        for name in survivor_names:  # every other block was unlinked
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        original_close()  # release the sabotaged block for real
        engine.reset()  # idempotent under repeated calls
        process.close()


class TestAtexitBackstop:
    def test_exit_without_close_unlinks_block(self, tmp_path):
        """A process that exits with a live, finalizer-disarmed ShmExport
        still unlinks its block through the module atexit hook."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import numpy as np\n"
            "from repro.tensor.tensor import Tensor\n"
            "from repro.tensor.serialization import export_tensor_shm\n"
            "tensor = Tensor.from_numpy(np.arange(64, dtype=np.float32))\n"
            "export = export_tensor_shm(tensor)\n"
            "export._finalizer.detach()  # disarm the per-export safety net\n"
            "print(export.name, flush=True)\n"
            "# exit WITHOUT close(): only the atexit backstop can unlink\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        block = result.stdout.strip()
        assert block
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=block)
