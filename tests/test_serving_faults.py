"""Chaos-hardened serving: crash boundary, retry, drain, fault injection.

The load-bearing guarantees under test:

- a decode step that raises fails only that batch's requests, with a
  typed :class:`StepFailed` delivered *promptly* through the future --
  never a stranded ``result()`` (regression: on the seed, an exception
  escaping a step killed the scheduler silently);
- ``stop()`` runs no step and returns at once, failing what is left with
  :class:`ServerClosed`;
- every injected fault -- kernel error, corrupt tile, delay, transient --
  is recovered from with *bit-identical* completed tokens and an audit
  trail in the fault log;
- a palette-kernel or corrupt-tile failure is a transient step error:
  retried with ``ServingConfig.backoff_s`` to identical tokens, and past
  the retry budget it fails the batch while the server keeps serving;
- ``stop(drain=True)`` finishes in-flight work, and a stopped server
  refuses admission.
"""

from __future__ import annotations

import contextlib
import gc
import time
import zlib
from unittest import mock

import numpy as np
import pytest

import repro.nn as nn
import repro.tensor as rt
from repro.core import DKMConfig, ModelCompressor
from repro.core.compressor import ClusteredLinear
from repro.llm import MICRO, build_model, generate
import repro.serving.batcher as batcher_mod
import repro.serving.server as server_mod
from repro.serving import (
    CorruptTileError,
    DeadlineExceeded,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PaletteKernelError,
    PaletteServer,
    ServerClosed,
    ServerRequest,
    ServingConfig,
    StepFailed,
    TileCache,
    TransientStepError,
)
from repro.serving.faults import DELAY_STEP_S, FAULT_KINDS, STEP_TARGET
from repro.tensor.autograd import no_grad

MAX_NEW = 5

PROMPTS = [
    "alice lives in",
    "the capital of",
    "bob",
    "carol works as a",
]


@pytest.fixture(scope="module")
def served_model(tokenizer, trained_state):
    """A trained, compressed MICRO model shared by this module's tests.

    Tests must not mutate weights; toggling the palette path is fine
    (every ``PaletteServer.close`` restores dense).
    """
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
    model.to(rt.GPU)
    for name, param in model.state_dict().items():
        param.copy_(trained_state[name])
    ModelCompressor(DKMConfig(bits=4)).compress(model)
    model.eval()
    return model


@pytest.fixture(scope="module")
def expected_texts(served_model, tokenizer):
    """Undisturbed greedy completions (dense path) -- the identity oracle."""
    return {
        p: generate(served_model, tokenizer, p, max_new_tokens=MAX_NEW)
        for p in PROMPTS
    }


def _config(**overrides) -> ServingConfig:
    defaults = dict(max_new_tokens=MAX_NEW)
    defaults.update(overrides)
    return ServingConfig(**defaults)


def _serve_all(server, prompts=PROMPTS, timeout=30.0):
    requests = [server.submit(p) for p in prompts]
    return [r.result(timeout=timeout) for r in requests]


class TestFaultPlanSpec:
    def test_valid_kinds_accepted(self):
        assert set(FAULT_KINDS) == {
            "kernel_error", "corrupt_tile", "delay_step", "transient_step"
        }
        for kind in FAULT_KINDS:
            plan = FaultPlan(specs=(FaultSpec(kind=kind, sweep=2),))
            assert _config(fault_plan=plan).fault_plan.specs[0].sweep == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="disk_full", sweep=1)

    def test_injector_from_plan_none(self):
        assert FaultInjector.from_plan(None) is None

    def test_seeded_layer_pick_deterministic(self):
        plan = FaultPlan(specs=(FaultSpec(kind="kernel_error", sweep=1),), seed=7)
        names = [f"blocks.{i}.mlp" for i in range(6)]
        picks = set()
        for _ in range(3):
            injector = FaultInjector(plan)
            injector.begin(1, names)
            fired = [name for name in names if injector.fire("kernel_error", name)]
            picks.add(tuple(fired))
        assert len(picks) == 1
        (fired,) = picks.pop()
        assert fired in names

    def test_fires_at_first_opportunity_at_or_after_step(self):
        plan = FaultPlan([FaultSpec("transient_step", sweep=3)])
        injector = FaultInjector(plan)
        injector.begin(1, [])
        assert injector.fire("transient_step", STEP_TARGET) is None  # armed >= 3
        injector.begin(2, [])
        assert injector.fire("transient_step", STEP_TARGET) is None
        injector.begin(4, [])  # step 3 gave no opportunity
        assert injector.fire("transient_step", STEP_TARGET) is not None
        assert injector.fire("transient_step", STEP_TARGET) is None  # times=1
        assert [(e.kind, e.sweep) for e in injector.log.events] == [
            ("transient_step", 4)
        ]


class TestServerRequestIdempotent:
    def test_first_complete_wins(self):
        request = ServerRequest("p", 4)
        assert request.complete("done") is True
        assert request.fail(RuntimeError("late")) is False
        assert request.complete("again") is False
        assert request.result(timeout=1) == "done"
        assert request.ok

    def test_first_fail_wins(self):
        request = ServerRequest("p", 4)
        error = StepFailed("boom")
        assert request.fail(error) is True
        assert request.complete("late") is False
        with pytest.raises(StepFailed):
            request.result(timeout=1)
        assert request.error is error


class TestTileCacheDigest:
    """The stamp on each resident layer weight: CRC-32 over every byte,
    checked on every hit.

    The detection properties below hold *by construction* for a CRC and
    fail for the cheaper schemes it was chosen over: an order-blind
    sum/xor fold misses the row swap, and a sampled or every-N-th-visit
    check misses most of the exhaustive sweeps and the call-shape count.
    """

    KEY = ("layer", 0)  # (layer name, weight version)

    def _tile(self):
        return np.arange(12, dtype=np.float32).reshape(3, 4)

    def _assert_detected(self, cache, tile):
        """The next ``get`` raises, drops the entry and then misses cleanly."""
        before = cache.resident_bytes()
        with pytest.raises(CorruptTileError) as excinfo:
            cache.get(*self.KEY)
        assert excinfo.value.layer == "layer"
        assert cache.resident_bytes() == before - tile.nbytes
        assert len(cache) == 0

    def _assert_flip_detected(self, cache, tile, alias, pos, mask):
        """Put ``tile``, xor ``mask`` into ``alias[pos]``, detect, undo."""
        cache.put(*self.KEY, tile)
        alias[pos] ^= mask
        self._assert_detected(cache, tile)
        alias[pos] ^= mask

    def test_roundtrip_clean(self):
        cache = TileCache()
        cache.put(*self.KEY, self._tile())
        got = cache.get(*self.KEY)
        np.testing.assert_array_equal(got, self._tile())
        assert cache.stats.corruptions == 0

    def test_corrupt_one_poisons_and_get_detects(self):
        cache = TileCache()
        tile = self._tile()
        cache.put(*self.KEY, tile)
        assert cache.corrupt_one("layer") is True
        assert not tile.flags.writeable  # the flag was restored
        self._assert_detected(cache, tile)
        assert cache.stats.corruptions == 1
        # The poisoned entry was dropped: next get is a clean miss.
        assert cache.get(*self.KEY) is None
        assert cache.resident_bytes() == 0
        assert cache.stats.misses == 1

    def test_corrupt_one_no_match(self):
        cache = TileCache()
        cache.put(*self.KEY, self._tile())
        assert cache.corrupt_one("other") is False

    def test_digest_hashes_the_buffer_in_place(self):
        tile = self._tile()
        assert TileCache._digest(tile) == zlib.crc32(tile.tobytes())
        # In place means never a hidden copy: a non-contiguous tile is
        # refused outright, by _digest and therefore by put.
        with pytest.raises(ValueError, match="contiguous"):
            TileCache._digest(tile.T)
        cache = TileCache()
        strided = tile[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            cache.put(*self.KEY, strided)
        assert len(cache) == 0 and strided.flags.writeable  # refused untouched

    def test_every_single_byte_error_is_detected(self):
        # Exhaustive on the 48-byte tile: every position x every non-zero
        # xor mask is a burst of <= 8 bits, which CRC-32 always catches.
        # The writable alias predates put -- the one stray-write route the
        # read-only flag cannot close.
        cache = TileCache()
        tile = self._tile()
        alias = tile.view(np.uint8).reshape(-1)
        for pos in range(alias.size):
            for mask in range(1, 256):
                self._assert_flip_detected(cache, tile, alias, pos, mask)
        assert cache.stats.corruptions == alias.size * 255
        cache.put(*self.KEY, tile)
        np.testing.assert_array_equal(cache.get(*self.KEY), self._tile())

    def test_full_size_tile_byte_word_and_transposition_errors(self):
        cache = TileCache()
        rng = np.random.default_rng(0)
        tile = rng.standard_normal((32, 256)).astype(np.float32)
        pristine = tile.copy()
        # Writable aliases must predate the first put (later views are
        # read-only, like the tile itself).
        as_bytes = tile.view(np.uint8).reshape(-1)
        as_words = tile.view(np.uint32)
        for pos in range(as_bytes.size):  # every byte, all 8 bits flipped
            self._assert_flip_detected(cache, tile, as_bytes, pos, 0xFF)
        # Every aligned float32 overwritten by a different value: a burst
        # of <= 32 bits.  xor with a non-zero word guarantees "different".
        flips = rng.integers(1, 1 << 32, size=as_words.shape, dtype=np.uint32)
        for pos in np.ndindex(as_words.shape):
            self._assert_flip_detected(cache, tile, as_words, pos, flips[pos])
        np.testing.assert_array_equal(tile, pristine)
        # A transposition keeps every byte value and every column sum, so
        # an order-blind sum / xor fold cannot see it.
        assert not np.array_equal(tile[3], tile[17])
        cache.put(*self.KEY, tile)
        as_words[[3, 17]] = as_words[[17, 3]]
        self._assert_detected(cache, tile)
        assert cache.stats.corruptions == as_bytes.size + as_words.size + 1

    def test_resident_tile_is_read_only(self):
        cache = TileCache()
        cache.put(*self.KEY, self._tile())
        with pytest.raises(ValueError, match="read-only"):
            cache.get(*self.KEY)[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cache.get(*self.KEY)[1:].fill(0.0)  # views inherit the flag
        # Nothing was written: the stamp still verifies.
        np.testing.assert_array_equal(cache.get(*self.KEY), self._tile())
        assert cache.stats.corruptions == 0
        assert cache.stats.hits == 3

    def _layers(self, cache, shapes=((133, 24), (40, 133), (7, 40))):
        """Served clustered layers, each routed to ``cache`` under its name."""
        layers = []
        for i, (out_features, in_features) in enumerate(shapes):
            layer = ClusteredLinear(
                nn.Linear(in_features, out_features, bias=False, rng=np.random.default_rng(i)),
                DKMConfig(bits=4),
            )
            layer.eval()
            layer.enable_palette_eval(name=f"layer{i}", cache=cache)
            layers.append(layer)
        return layers

    def _forward(self, layers, x):
        x = rt.Tensor.from_numpy(x)
        with no_grad():
            for layer in layers:
                x = layer(x)
        return x.numpy()

    def test_every_layer_is_verified_on_every_call(self):
        # Call shape, not timing: a sampled or every-N-th-visit scheme
        # makes fewer _digest calls than layers and fails here.
        cache = TileCache()
        layers = self._layers(cache)
        x = np.random.default_rng(1).standard_normal((7, 24)).astype(np.float32)
        cold = self._forward(layers, x)  # every layer misses, is dequantized and put
        assert len(cache) == len(layers)
        with mock.patch.object(
            TileCache, "_digest", wraps=TileCache._digest
        ) as stamp:
            for _ in range(3):
                stamp.reset_mock()
                warm = self._forward(layers, x)
                verified = [call.args[0] for call in stamp.call_args_list]
                assert [t.shape for t in verified] == [
                    layer.inner.weight.shape for layer in layers
                ]
                assert sum(t.nbytes for t in verified) == cache.resident_bytes()
        assert cache.stats.hits == 3 * len(layers)
        assert cache.stats.puts == len(layers)
        # One cold call read each palette, three warm calls the resident weight.
        assert [layer.served_bytes for layer in layers] == [
            16 * 4 + layer.inner.weight.numel * (1 + 3 * 4) for layer in layers
        ]
        np.testing.assert_array_equal(warm, cold)

    def test_warm_call_is_one_get_one_digest_one_gemm(self, monkeypatch):
        cache = TileCache()
        (layer,) = self._layers(cache, shapes=((133, 24),))
        x = np.random.default_rng(1).standard_normal((7, 24)).astype(np.float32)
        self._forward([layer], x)
        gemms = []
        real_matmul = np.matmul

        def recording(a, b, *args, **kwargs):
            gemms.append((a.shape, b.shape))
            return real_matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        with mock.patch.object(
            TileCache, "get", autospec=True, side_effect=TileCache.get
        ) as get, mock.patch.object(
            TileCache, "_digest", wraps=TileCache._digest
        ) as stamp:
            y = self._forward([layer], x)
        assert get.call_count == 1 and stamp.call_count == 1
        assert gemms == [((7, 24), (24, 133))]
        _, lut, indices, _ = layer._eval
        np.testing.assert_array_equal(y, real_matmul(x, lut[indices].T))


class TestStepCrashBoundary:
    """Regression (seed bug): a step exception must not strand futures."""

    def test_step_exception_fails_batch_promptly(
        self, served_model, tokenizer, expected_texts, monkeypatch
    ):
        calls = {"n": 0}
        import repro.serving.batcher as batcher_mod

        real = batcher_mod.decode_step

        def exploding(model, ids, caches, device=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated forward crash")
            return real(model, ids, caches, device=device)

        monkeypatch.setattr(batcher_mod, "decode_step", exploding)
        with PaletteServer(served_model, tokenizer, _config()) as server:
            request = server.submit(PROMPTS[0])
            # On the seed this raised TimeoutError: the scheduler thread
            # died and the future was never resolved.
            with pytest.raises(StepFailed) as excinfo:
                request.result(timeout=5)
            assert isinstance(excinfo.value.cause, RuntimeError)
            # Crash boundary: the server still serves correct tokens afterwards.
            text = server.submit(PROMPTS[1]).result(timeout=30)
            assert text == expected_texts[PROMPTS[1]]
            assert server.stats().step_failures >= 1


class TestStop:
    """``stop()`` runs no step: it returns at once and fails what is left."""

    def test_stop_fails_queued_and_in_flight_work_without_a_step(
        self, served_model, tokenizer, expected_texts
    ):
        server = PaletteServer(served_model, tokenizer, _config(max_batch_size=2))
        try:
            first = server.submit(PROMPTS[0], max_new_tokens=1)
            rest = [server.submit(p) for p in PROMPTS[1:]]
            assert first.result(timeout=30) == generate(
                served_model, tokenizer, PROMPTS[0], max_new_tokens=1
            )
            steps = server.stats().decode_steps
            assert rest[0].scheduled_at is not None  # in flight, not done
            server.stop()
            assert server.stats().decode_steps == steps
            for request in rest:
                with pytest.raises(ServerClosed):
                    request.result(timeout=0)
            assert len(server.queue) == 0 and server.batcher.active == []
            assert server.stats().kv_cache_bytes == 0
        finally:
            server.close()


class TestInjectedFaults:
    def test_transient_step_retried_to_identical_tokens(
        self, served_model, tokenizer, expected_texts
    ):
        config = _config(
            fault_plan=FaultPlan([FaultSpec("transient_step", sweep=1)]),
            backoff_s=0.001,
        )
        with PaletteServer(served_model, tokenizer, config) as server:
            texts = _serve_all(server)
            assert texts == [expected_texts[p] for p in PROMPTS]
            report = server.stats()
            assert report.step_retries >= 1
            assert report.step_failures == 0
            events = server.fault_injector.log.events
            assert [e.kind for e in events] == ["transient_step"]

    def test_transient_exhausts_retries_to_step_failed(
        self, monkeypatch, served_model, tokenizer, expected_texts
    ):
        monkeypatch.setattr(server_mod, "STEP_RETRIES", 1)
        config = _config(
            fault_plan=FaultPlan([FaultSpec(
                "transient_step", sweep=1, times=2
            )]),
            backoff_s=0.001,
        )
        with PaletteServer(served_model, tokenizer, config) as server:
            request = server.submit(PROMPTS[0])
            with pytest.raises(StepFailed) as excinfo:
                request.result(timeout=10)
            assert isinstance(excinfo.value.cause, TransientStepError)
            # The loop survived; once the plan is spent, service resumes.
            text = server.submit(PROMPTS[1]).result(timeout=30)
            assert text == expected_texts[PROMPTS[1]]

    def test_delay_step_completes_identically(
        self, served_model, tokenizer, expected_texts
    ):
        config = _config(
            fault_plan=FaultPlan([FaultSpec("delay_step", sweep=2)]),
        )
        with PaletteServer(served_model, tokenizer, config) as server:
            texts = _serve_all(server)
            assert texts == [expected_texts[p] for p in PROMPTS]
            events = server.fault_injector.log.events
            assert [e.kind for e in events] == ["delay_step"]

    def test_each_delay_step_naps_the_chaos_nap(
        self, served_model, tokenizer, expected_texts
    ):
        """Every ``delay_step`` firing sleeps :data:`DELAY_STEP_S` on the
        thread that steps the server, and nothing else sleeps."""
        config = _config(
            fault_plan=FaultPlan([FaultSpec("delay_step", sweep=1, times=2)]),
        )
        with PaletteServer(served_model, tokenizer, config) as server:
            with _recorded_sleeps() as sleeps:
                text = server.submit(PROMPTS[0]).result(timeout=30)
            report = server.stats()
        assert text == expected_texts[PROMPTS[0]]
        assert sleeps == [DELAY_STEP_S, DELAY_STEP_S]
        assert (report.step_retries, report.step_failures) == (0, 0)

    def test_kernel_error_retried_to_identical_tokens(
        self, served_model, tokenizer, expected_texts
    ):
        config = _config(
            fault_plan=FaultPlan([FaultSpec("kernel_error", sweep=1, times=2)]),
            backoff_s=0.001,
        )
        with PaletteServer(served_model, tokenizer, config) as server:
            texts = _serve_all(server)
            assert texts == [expected_texts[p] for p in PROMPTS]
            report = server.stats()
            events = server.fault_injector.log.events
            assert [e.kind for e in events] == ["kernel_error"] * 2
            assert report.step_retries == len(events)
            assert report.step_failures == 0
            # Every layer stays on the palette path: no layer is tripped.
            assert server._palette_layers
            assert all(
                module._route[1] is server.tile_cache
                for _, module in server._palette_layers
            )

    def test_kernel_error_exhausts_retries_to_step_failed(
        self, monkeypatch, served_model, tokenizer, expected_texts
    ):
        monkeypatch.setattr(server_mod, "STEP_RETRIES", 1)
        config = _config(
            fault_plan=FaultPlan([FaultSpec("kernel_error", sweep=1, times=2)]),
            backoff_s=0.001,
        )
        with PaletteServer(served_model, tokenizer, config) as server:
            request = server.submit(PROMPTS[0])
            with pytest.raises(StepFailed) as excinfo:
                request.result(timeout=10)
            assert isinstance(excinfo.value.cause, PaletteKernelError)
            # The server keeps serving, on the palette path, once the plan
            # is spent.
            text = server.submit(PROMPTS[1]).result(timeout=30)
            assert text == expected_texts[PROMPTS[1]]
            report = server.stats()
            assert (report.step_retries, report.step_failures) == (1, 1)

    def test_corrupt_tile_detected_and_recovered(
        self, served_model, tokenizer, expected_texts
    ):
        config = _config(
            fault_plan=FaultPlan([FaultSpec("corrupt_tile", sweep=2)]),
        )
        with PaletteServer(served_model, tokenizer, config) as server:
            texts = _serve_all(server)
            assert texts == [expected_texts[p] for p in PROMPTS]
            events = server.fault_injector.log.events
            assert [e.kind for e in events] == ["corrupt_tile"]
            assert server.tile_cache.stats.corruptions >= 1
            # The poisoned tile was dropped; one retry re-dequantized it.
            assert server.stats().step_retries == 1


_TRANSIENT_ERRORS = [
    lambda: TransientStepError("step"),
    lambda: PaletteKernelError("layers.0.attn.q_proj", "step"),
    lambda: CorruptTileError("layers.0.attn.q_proj", "step"),
]
_TRANSIENT_IDS = ["TransientStepError", "PaletteKernelError", "CorruptTileError"]


@contextlib.contextmanager
def _failing_first_steps(make_error, times):
    """Make the first ``times`` ``decode_step`` calls raise ``make_error()``."""
    real = batcher_mod.decode_step
    calls = {"n": 0}

    def failing(model, ids, caches, device=None):
        calls["n"] += 1
        if calls["n"] <= times:
            raise make_error()
        return real(model, ids, caches, device=device)

    with mock.patch.object(batcher_mod, "decode_step", failing):
        yield calls


@contextlib.contextmanager
def _recorded_sleeps():
    """Record, instead of sleeping, every wait of the server's scheduler."""
    sleeps = []
    with mock.patch.object(server_mod.time, "sleep", sleeps.append):
        yield sleeps


class TestOneRetryPath:
    """Every palette-path failure takes the one transient retry arm."""

    @pytest.mark.parametrize("make_error", _TRANSIENT_ERRORS, ids=_TRANSIENT_IDS)
    def test_each_retry_sleeps_the_policy_backoff(
        self, served_model, tokenizer, expected_texts, make_error
    ):
        config = _config(backoff_s=0.001)  # STEP_RETRIES re-attempts: 2
        with _failing_first_steps(make_error, times=2) as calls:
            with PaletteServer(served_model, tokenizer, config) as server:
                with _recorded_sleeps() as sleeps:
                    text = server.submit(PROMPTS[0]).result(timeout=30)
                report = server.stats()
        assert text == expected_texts[PROMPTS[0]]
        assert calls["n"] > 2
        assert sleeps == [0.001, 0.002]  # backoff_s * 2**(n - 1)
        assert (report.step_retries, report.step_failures) == (2, 0)

    @pytest.mark.parametrize("make_error", _TRANSIENT_ERRORS, ids=_TRANSIENT_IDS)
    def test_zero_retries_fails_the_batch_at_once(
        self, monkeypatch, served_model, tokenizer, expected_texts, make_error
    ):
        monkeypatch.setattr(server_mod, "STEP_RETRIES", 0)
        config = _config(backoff_s=0.001)
        with _failing_first_steps(make_error, times=1):
            with PaletteServer(served_model, tokenizer, config) as server:
                with _recorded_sleeps() as sleeps:
                    request = server.submit(PROMPTS[0])
                    with pytest.raises(StepFailed) as excinfo:
                        request.result(timeout=10)
                    assert type(excinfo.value.cause) is type(make_error())
                    # The server survived and serves the next request cleanly.
                    text = server.submit(PROMPTS[1]).result(timeout=30)
                    report = server.stats()
        assert text == expected_texts[PROMPTS[1]]
        assert sleeps == []
        assert (report.step_retries, report.step_failures) == (0, 1)


@contextlib.contextmanager
def _raise_mid_step(model, error, on_call):
    """Make the last layer's MLP raise ``error`` on its ``on_call``-th run.

    By then the step's embedding and every attention layer have run, so a
    step that appended K/V as it went would be half-appended.
    """
    mlp = model.layers[len(model.layers) - 1].mlp
    real = mlp.forward
    calls = {"n": 0}

    def forward(*args):
        calls["n"] += 1
        if calls["n"] == on_call:
            raise error
        return real(*args)

    object.__setattr__(mlp, "forward", forward)
    try:
        yield calls
    finally:
        object.__delattr__(mlp, "forward")


@contextlib.contextmanager
def _recorded_steps():
    """Record ``(cache, cached length, tokens)`` per row of every ``decode_step`` call."""
    real = batcher_mod.decode_step
    calls = []

    def recording(model, ids, caches, device=None):
        entry = {
            "rows": [(c, c.length, len(row)) for c, row in zip(caches, ids)],
            "ok": False,
        }
        calls.append(entry)
        logits = real(model, ids, caches, device=device)
        entry["ok"] = True
        return logits

    with mock.patch.object(batcher_mod, "decode_step", recording):
        yield calls


class TestRetryAtomicity:
    """A step that dies midway and is retried leaves no half-appended K/V."""

    @pytest.mark.parametrize(
        "error",
        [
            TransientStepError("mid-step"),
            PaletteKernelError("layers.1.mlp.down_proj", "mid-step"),
            CorruptTileError("layers.1.mlp.down_proj", "mid-step"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_mid_step_failure_retried_to_identical_tokens(
        self, served_model, tokenizer, expected_texts, error
    ):
        config = _config(max_batch_size=2, backoff_s=0.001)
        # Call 3 is a step over a partly decoded batch: with two slots and
        # four prompts, rows are two tokens in.
        with _raise_mid_step(served_model, error, on_call=3) as mlp_calls:
            with _recorded_steps() as steps:
                with PaletteServer(served_model, tokenizer, config) as server:
                    texts = _serve_all(server)
                    report = server.stats()
        assert mlp_calls["n"] > 3
        assert texts == [expected_texts[p] for p in PROMPTS]
        assert report.step_retries == 1
        assert report.step_failures == 0
        failed = [i for i, step in enumerate(steps) if not step["ok"]]
        assert failed == [2]
        # The retry saw exactly the state the failed attempt saw ...
        assert steps[3]["rows"] == steps[2]["rows"]
        assert any(cached > 0 for _, cached, _ in steps[2]["rows"])
        # ... and every row's cached length is what it fed in steps that
        # succeeded: nothing before its first, all but the newest token after.
        fed = set()
        for step in steps:
            for cache, cached, tokens in step["rows"]:
                assert cached == (tokens - 1 if id(cache) in fed else 0)
            if step["ok"]:
                fed.update(id(cache) for cache, _, _ in step["rows"])


class TestKVLifetime:
    """K/V bytes live on the model's device and every way out returns them."""

    def test_tracker_returns_to_baseline_after_mixed_outcomes(
        self, served_model, tokenizer, monkeypatch
    ):
        class NeverStops(type(tokenizer)):
            eos_id = -1  # every request decodes to its budget

        decoder = NeverStops(tokenizer.words)
        real = batcher_mod.decode_step
        nap = {"calls": 0, "at_call": None}

        def paced(model, ids, caches, device=None):
            nap["calls"] += 1
            if nap["calls"] == nap["at_call"]:
                time.sleep(0.3)
            return real(model, ids, caches, device=device)

        monkeypatch.setattr(batcher_mod, "decode_step", paced)
        gc.collect()
        baseline = rt.GPU.tracker.current_bytes
        server = PaletteServer(served_model, decoder, _config(max_new_tokens=50))
        try:
            completed = server.submit(PROMPTS[0], max_new_tokens=MAX_NEW)
            assert completed.result(timeout=30) == generate(
                served_model, decoder, PROMPTS[0], max_new_tokens=MAX_NEW
            )
            # Two tokens in when its deadline passes inside a slow step.
            nap["at_call"] = nap["calls"] + 2
            late = server.submit(PROMPTS[1], deadline_s=0.15)
            with pytest.raises(DeadlineExceeded):
                late.result(timeout=30)
            assert late.tokens_generated == 2
            # In flight when the server stops: a one-token request steps
            # the batch they share once.
            cut = [server.submit(p) for p in PROMPTS[2:]]
            server.submit(PROMPTS[0], max_new_tokens=1).result(timeout=30)
            assert all(r.tokens_generated == 1 for r in cut)
            held = sum(seq.kv.nbytes for seq in server.batcher.active)
            server.stop()
            for request in cut:
                with pytest.raises(ServerClosed):
                    request.result(timeout=5)
            report = server.stats()
            gc.collect()
            assert held > 0
            assert rt.GPU.tracker.current_bytes == baseline
            assert report.aborted_deadline == 1
            assert report.kv_cache_bytes == 0
            assert report.kv_cache_peak_bytes >= held
        finally:
            server.close()


class TestDrain:
    def test_drain_completes_inflight_work(
        self, served_model, tokenizer, expected_texts
    ):
        with PaletteServer(served_model, tokenizer, _config()) as server:
            requests = [server.submit(p) for p in PROMPTS]
            server.stop(drain=True)
            texts = [r.result(timeout=0) for r in requests]
            assert texts == [expected_texts[p] for p in PROMPTS]
            assert len(server.queue) == 0
            assert server.stats().completed == len(PROMPTS)

    def test_drained_server_refuses_admission(self, served_model, tokenizer):
        with PaletteServer(served_model, tokenizer, _config()) as server:
            server.stop(drain=True)
            with pytest.raises(ServerClosed):
                server.submit(PROMPTS[0])
            assert server.stats().submitted == 0

    def test_submit_on_stopped_server_raises(self, served_model, tokenizer):
        server = PaletteServer(served_model, tokenizer, _config())
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(PROMPTS[0])


class TestServingConfigContract:
    def test_fault_plan_type_validated(self):
        with pytest.raises(ValueError, match="fault_plan"):
            _config(fault_plan="transient_step")


class TestConcurrentChaos:
    def test_concurrent_clients_with_faults_no_stranded_futures(
        self, served_model, tokenizer, expected_texts
    ):
        """Eight requests outstanding at once, awaited newest first."""
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="transient_step", sweep=2),
                FaultSpec(kind="corrupt_tile", sweep=3),
                FaultSpec(kind="delay_step", sweep=4),
            )
        )
        config = _config(fault_plan=plan, backoff_s=0.001)
        with PaletteServer(served_model, tokenizer, config) as server:
            requests = [server.submit(PROMPTS[i % len(PROMPTS)]) for i in range(8)]
            texts = [request.result(timeout=30) for request in reversed(requests)]
            injector = server.fault_injector
            assert {e.kind for e in injector.log.events} == {
                "transient_step",
                "corrupt_tile",
                "delay_step",
            }
        assert texts[::-1] == [expected_texts[PROMPTS[i % len(PROMPTS)]] for i in range(8)]


class TestChaosBenchHelpers:
    """Unit tests for the chaos benchmark's pure pieces.

    The end-to-end matrix runs as ``python -m repro.bench serving_faults``
    (CI smoke, and ``tests/test_bench_cli.py`` in quick mode); these cover
    the plan/config factories and the gate arithmetic in ``to_json_dict``
    without training a model.
    """

    def _row(self, **overrides):
        from repro.bench.serving_faults import ChaosScenarioRow

        base = dict(
            scenario="transient_step-c1",
            kind="transient_step",
            clients=1,
            submitted=4,
            completed=4,
            client_retries=0,
            tokens_identical=True,
            stranded=False,
            stop_s=0.01,
            wall_s=0.5,
        )
        base.update(overrides)
        return ChaosScenarioRow(**base)

    def test_plan_for_every_kind_is_armed_and_single_spec(self):
        from repro.bench.serving_faults import CHAOS_KINDS, _plan_for

        for kind in CHAOS_KINDS:
            plan = _plan_for(kind, seed=3)
            assert len(plan.specs) == 1
            assert plan.specs[0].kind == kind
            assert plan.seed == 3

    def test_plan_for_unknown_kind_raises(self):
        from repro.bench.serving_faults import _plan_for

        with pytest.raises(ValueError, match="unknown chaos kind"):
            _plan_for("segfault", seed=0)

    def test_config_for_backs_off_and_covers_every_firing(self):
        from repro.bench.serving_faults import _config_for, _plan_for

        delay = _config_for(_plan_for("delay_step", 0), 4)
        assert (delay.backoff_s, delay.max_new_tokens) == (0.005, 4)
        assert delay.fault_plan is not None
        # The server's retry budget covers every firing of the kernel spec.
        kernel = _config_for(_plan_for("kernel_error", 0), 4)
        assert server_mod.STEP_RETRIES >= kernel.fault_plan.specs[0].times

    def test_drive_chaos_resubmits_each_step_failed_request(
        self, served_model, tokenizer, expected_texts, monkeypatch
    ):
        from repro.bench.serving_faults import _drive_chaos

        monkeypatch.setattr(server_mod, "STEP_RETRIES", 0)
        plan = FaultPlan([FaultSpec("transient_step", sweep=1)])
        config = _config(fault_plan=plan, max_batch_size=2)
        with PaletteServer(served_model, tokenizer, config) as server:
            texts, retries, stranded = _drive_chaos(server, PROMPTS, MAX_NEW, clients=2)
            report = server.stats()
        assert texts == [expected_texts[p] for p in PROMPTS]
        # The failed first step held one request of each client.
        assert (retries, stranded) == (2, False)
        assert (report.step_failures, report.submitted) == (1, len(PROMPTS) + 2)

    @pytest.mark.parametrize("clients", [1, 2, 4])
    def test_drive_chaos_counts_are_a_function_of_the_plan(
        self, served_model, tokenizer, expected_texts, monkeypatch, clients
    ):
        """One driver thread: the retries and fault log repeat exactly."""
        from repro.bench.serving_faults import _drive_chaos

        monkeypatch.setattr(server_mod, "STEP_RETRIES", 0)
        plan = FaultPlan(
            [FaultSpec("transient_step", sweep=2), FaultSpec("kernel_error", sweep=3)]
        )

        def run():
            config = _config(fault_plan=plan, max_batch_size=2)
            with PaletteServer(served_model, tokenizer, config) as server:
                texts, retries, stranded = _drive_chaos(server, PROMPTS, MAX_NEW, clients)
                events = [(e.kind, e.sweep, e.layer) for e in server.fault_injector.log.events]
                report = server.stats()
            return texts, retries, stranded, events, report.decode_steps, report.step_failures

        first = run()
        assert first == run()
        texts, retries, stranded, events, _, failures = first
        assert texts == [expected_texts[p] for p in PROMPTS]
        assert not stranded and failures == 2 and retries >= 2
        assert [kind for kind, _, _ in events] == ["transient_step", "kernel_error"]

    def test_drive_chaos_reports_an_unresolved_request_as_stranded(
        self, served_model, tokenizer
    ):
        from repro.bench.serving_faults import _drive_chaos

        with PaletteServer(served_model, tokenizer, _config()) as server:
            texts, retries, stranded = _drive_chaos(
                server, PROMPTS[:2], MAX_NEW, clients=1, timeout=0.0
            )
            assert server.stats().decode_steps == 0
        assert (texts, retries, stranded) == ([None, None], 0, True)

    def test_to_json_dict_gates_reflect_rows(self):
        from repro.bench.serving_faults import ChaosBenchResult

        good = ChaosBenchResult(rows=[self._row()])
        payload = good.to_json_dict()
        assert payload["benchmark"] == "serving_faults"
        assert payload["tokens_identical"]
        assert payload["faults_reconciled"]
        assert payload["no_stranded_futures"]
        assert payload["shutdown_bounded"]

        bad = ChaosBenchResult(
            rows=[
                self._row(tokens_identical=False),
                self._row(scenario="delay_step-c4", stranded=True),
                self._row(scenario="kernel_error-c1", unfired_specs=1),
                self._row(scenario="corrupt_tile-c1", stop_s=1e9),
            ]
        )
        payload = bad.to_json_dict()
        assert not payload["tokens_identical"]
        assert not payload["faults_reconciled"]
        assert not payload["no_stranded_futures"]
        assert not payload["shutdown_bounded"]

    def test_kernel_row_without_a_retry_per_firing_is_reported(self):
        from repro.bench.serving_faults import ChaosBenchResult

        fired = {"kernel_error": 2}
        retried = self._row(
            scenario="kernel_error-c1", kind="kernel_error",
            fault_events=fired, step_retries=2,
        )
        assert ChaosBenchResult(rows=[retried], drain_ok=True).failures() == []
        unretried = self._row(
            scenario="kernel_error-c1", kind="kernel_error",
            fault_events=fired, step_retries=1,
        )
        (failure,) = ChaosBenchResult(rows=[unretried], drain_ok=True).failures()
        assert "did not retry every firing" in failure

    def test_reconcile_faults_counts_events_and_unfired_specs(
        self, served_model, tokenizer
    ):
        from repro.bench.serving_faults import _reconcile_faults

        plan = FaultPlan(
            specs=(
                FaultSpec(kind="transient_step", sweep=1, times=1),
                FaultSpec(kind="delay_step", sweep=999),
            ),
            seed=0,
        )
        config = _config(fault_plan=plan)
        with PaletteServer(served_model, tokenizer, config) as server:
            _serve_all(server, PROMPTS[:1])
            events, unfired = _reconcile_faults(server, plan)
        assert events.get("transient_step", 0) == 1
        assert unfired == 1  # the sweep-999 spec never fired
        # No plan at all: nothing to reconcile.
        with PaletteServer(served_model, tokenizer, _config()) as server:
            _serve_all(server, PROMPTS[:1])
            events, unfired = _reconcile_faults(server, None)
        assert events == {}
        assert unfired == 0
