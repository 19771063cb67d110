"""Serving subsystem tests: queue, palette kernels, batching, server, facade.

The load-bearing guarantees under test:

- batched generation is *bit-identical* to one-at-a-time generation
  (length-bucketed, never padded);
- the palette eval path produces the same tokens as dense
  reconstruction, sequentially and under concurrent multi-client load;
- ``ClusteredLinear``'s eval snapshot keys on the weight's storage and
  its version, so an in-place weight update in eval mode is never served
  stale;
- admission control bounds the queue and deadlines reject late work;
- every served byte is counted once, in the server's own bounded
  counters, and serving writes nothing to the traffic ledger.
"""

from __future__ import annotations

import contextlib
import gc
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.nn as nn
import repro.tensor as rt
from repro.core import DKMConfig, ModelCompressor
from repro.core.compressor import ClusteredLinear
from repro.llm import MICRO, ModelSpec, WordTokenizer, build_model, generate, generate_batch
from repro.llm.generate import batched_last_logits
import repro.serving.batcher as batcher_mod
from repro.core.uniquify import uniquify_call_count
from repro.data import standard_suites
from repro.evalsuite import evaluate_suites
from repro.memory import global_ledger, global_registry
from repro.tensor.autograd import no_grad
from repro.serving import (
    AdmissionError,
    ContinuousBatcher,
    CorruptTileError,
    DeadlineExceeded,
    PaletteLayout,
    PaletteServer,
    RequestQueue,
    ServerClosed,
    ServerRequest,
    ServingConfig,
    TileCache,
    palette_matmul,
    percentile,
)

MAX_NEW = 6


def _request(deadline=None, now=0.0, max_new_tokens=4):
    return ServerRequest("p", max_new_tokens, deadline=deadline, now=now)


class TestRequestQueue:
    def test_admission_bound(self):
        queue = RequestQueue(max_depth=2)
        queue.submit(_request())
        queue.submit(_request())
        with pytest.raises(AdmissionError):
            queue.submit(_request())
        assert len(queue) == 2

    def test_take_skips_expired_without_consuming_slots(self):
        queue = RequestQueue(max_depth=8)
        late = _request(deadline=5.0, now=0.0)
        live = _request(deadline=None, now=0.0)
        queue.submit(late)
        queue.submit(live)
        admitted, expired = queue.take(limit=1, now=10.0)
        assert admitted == [live]
        assert expired == [late]
        assert late.done and not late.ok
        with pytest.raises(DeadlineExceeded):
            late.result(timeout=0)

    def test_drain_fails_pending(self):
        queue = RequestQueue(max_depth=4)
        request = queue.submit(_request())
        drained = queue.drain(ServerClosed("bye"))
        assert drained == [request]
        assert len(queue) == 0
        with pytest.raises(ServerClosed):
            request.result(timeout=0)

    def test_result_timeout_and_completion(self):
        request = _request()
        with pytest.raises(TimeoutError):
            request.result(timeout=0.01)
        request.complete("out", now=3.0)
        assert request.ok and request.done
        assert request.result(timeout=0) == "out"
        assert request.latency_s == 3.0

    def test_queue_wait_requires_scheduling(self):
        request = _request(now=1.0)
        assert request.queue_wait_s is None
        request.scheduled_at = 1.5
        assert request.queue_wait_s == 0.5

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile([7.0], 50) == 7.0


class TestPaletteKernel:
    def _layout(self, out=8, in_f=16, k=4, seed=0):
        rng = np.random.default_rng(seed)
        lut = rng.standard_normal(k).astype(np.float32)
        indices = rng.integers(0, k, size=(out, in_f))
        return lut, indices, PaletteLayout.build(lut, indices)

    def test_served_resident_weight_is_the_lut_gather(self):
        wrapped = ClusteredLinear(
            nn.Linear(24, 40, rng=np.random.default_rng(0)), DKMConfig(bits=4)
        )
        wrapped.eval()
        cache = TileCache()
        wrapped.enable_palette_eval(name="layer", cache=cache)
        with no_grad():
            wrapped(rt.Tensor.from_numpy(np.ones((1, 24), np.float32)))
        key, lut, indices, dense = wrapped._eval
        assert indices.dtype == np.uint8 and indices.shape == (40, 24)
        assert dense is None  # a served layer holds no dense Tensor
        resident = cache.get("layer", key)
        assert resident.tobytes() == lut[indices].tobytes()
        assert cache.resident_bytes() == 40 * 24 * 4
        # The cold call charged the palette it read: the lut and the indices.
        assert wrapped.served_bytes == lut.nbytes + 40 * 24 == 16 * 4 + 40 * 24

    def test_palette_matmul_matches_dense(self):
        lut, indices, layout = self._layout(out=12, in_f=32, k=8)
        x = np.random.default_rng(1).standard_normal((5, 32)).astype(np.float32)
        dense = x @ lut[indices].T
        np.testing.assert_allclose(palette_matmul(x, layout), dense, atol=1e-5)

    def test_palette_matmul_takes_no_row_range(self):
        _, _, layout = self._layout()
        with pytest.raises(TypeError):
            palette_matmul(np.ones((1, 16), np.float32), layout, row_start=3, row_end=9)

    @pytest.mark.parametrize("dtype", ["float16", "bfloat16", "float32"])
    def test_palette_matmul_across_lut_dtypes(self, dtype):
        # The lut is projected to the serving dtype before layout build;
        # the kernel must agree with dense reconstruction of that same
        # projected lut for every weight dtype the models use.
        rng = np.random.default_rng(2)
        raw = rng.standard_normal(8)
        if dtype == "bfloat16":
            lut = rt.Tensor.from_numpy(raw, dtype=rt.bfloat16)._compute()
        else:
            lut = raw.astype(np.float16).astype(np.float32) if dtype == "float16" else raw.astype(np.float32)
        lut = np.asarray(lut, dtype=np.float32)
        indices = rng.integers(0, 8, size=(10, 24))
        layout = PaletteLayout.build(lut, indices)
        x = rng.standard_normal((3, 24)).astype(np.float32)
        np.testing.assert_allclose(
            palette_matmul(x, layout), x @ lut[indices].T, atol=1e-5
        )

    def test_layout_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            PaletteLayout.build(np.zeros(4, np.float32), np.zeros(8, np.int64))
        with pytest.raises(ValueError, match="out of range"):
            PaletteLayout.build(
                np.zeros(4, np.float32), np.full((2, 3), 4, np.int64)
            )

    def test_packed_artifact_smaller_than_fp16(self):
        """The shipped artifact is a 16-bit lut plus bit-packed indices."""
        wrapped = ClusteredLinear(
            nn.Linear(64, 64, rng=np.random.default_rng(0)), DKMConfig(bits=4)
        )
        artifact = wrapped.palettize()
        assert artifact.lut.size == 16
        assert artifact.nbytes == 2 * 16 + 64 * 64 * 4 // 8 < 2 * 64 * 64


class TestTileCache:
    def _tile(self, fill, rows=2, cols=4):
        return np.full((rows, cols), fill, dtype=np.float32)  # 32 bytes

    def test_bytes_limit_is_refused(self):
        """The byte budget and its LRU eviction are retired: the cache
        takes no arguments and its stats carry no eviction counter."""
        with pytest.raises(TypeError, match="bytes_limit"):
            TileCache(bytes_limit=64)
        assert set(TileCache().stats.to_dict()) == {"hits", "misses", "puts", "corruptions"}

    def test_every_put_stays_resident(self):
        cache = TileCache()
        for i in range(10):
            cache.put(f"a{i}", 0, self._tile(float(i)))
        assert cache.resident_bytes() == 320
        assert all(cache.get(f"a{i}", 0) is not None for i in range(10))

    def test_put_over_a_key_replaces_its_bytes(self):
        cache = TileCache()
        cache.put("a", 0, self._tile(0.0))
        cache.put("a", 0, self._tile(1.0))
        assert len(cache) == 1
        assert cache.resident_bytes() == 32
        assert float(cache.get("a", 0)[0, 0]) == 1.0

    def test_corrupt_tile_is_dropped_and_refilled(self):
        cache = TileCache()
        cache.put("a", 0, self._tile(1.0))
        cache.put("b", 0, self._tile(2.0))
        assert cache.corrupt_one("a")
        with pytest.raises(CorruptTileError):
            cache.get("a", 0)
        # The poisoned entry is gone; the other layer's tile is untouched.
        assert not cache.holds("a")
        assert cache.resident_bytes() == 32
        assert cache.get("a", 0) is None
        cache.put("a", 0, self._tile(1.0))
        assert float(cache.get("a", 0)[0, 0]) == 1.0
        assert float(cache.get("b", 0)[0, 0]) == 2.0
        assert cache.stats.to_dict() == {
            "hits": 2, "misses": 1, "puts": 3, "corruptions": 1
        }

    def test_new_version_replaces_the_entry(self):
        """One entry per layer name: a put of a new weight version replaces
        the old one, whose version then misses."""
        cache = TileCache()
        cache.put("layer0", 7, self._tile(0.0))
        cache.put("layer1", 7, self._tile(2.0))
        cache.put("layer0", 8, self._tile(1.0))
        assert len(cache) == 2 and cache.resident_bytes() == 64
        assert cache.get("layer0", 7) is None
        assert float(cache.get("layer0", 8)[0, 0]) == 1.0
        assert cache.get("layer1", 7) is not None
        cache.clear()
        assert len(cache) == 0 and cache.resident_bytes() == 0
        assert cache.stats.to_dict() == {
            "hits": 2, "misses": 1, "puts": 3, "corruptions": 0
        }


@pytest.fixture(scope="module")
def plain_model(tokenizer):
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
    model.to(rt.GPU)
    model.eval()
    return model


@pytest.fixture(scope="module")
def served_model(tokenizer, trained_state):
    """A trained, compressed MICRO model shared by the server tests.

    Module-scoped: compression clusters every layer once.  Tests must not
    mutate weights or module structure (``PaletteServer.close`` restores
    the dense eval path, so serving itself is safe).
    """
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
    model.to(rt.GPU)
    for name, param in model.state_dict().items():
        param.copy_(trained_state[name])
    ModelCompressor(DKMConfig(bits=4)).compress(model)
    model.eval()
    return model


PROMPTS = [
    "alice lives in",
    "the capital of",
    "bob",
    "carol works as a",
    "where does alice",
    "the",
]


class TestBatchedGeneration:
    def test_batch_matches_singles_greedy(self, plain_model, tokenizer):
        singles = [
            generate(plain_model, tokenizer, p, max_new_tokens=MAX_NEW)
            for p in PROMPTS
        ]
        batch = generate_batch(
            plain_model, tokenizer, PROMPTS, max_new_tokens=MAX_NEW
        )
        assert batch == singles

    def test_batch_matches_singles_with_temperature(self, plain_model, tokenizer):
        singles = [
            generate(
                plain_model,
                tokenizer,
                p,
                max_new_tokens=MAX_NEW,
                temperature=0.8,
                rng=np.random.default_rng(100 + i),
            )
            for i, p in enumerate(PROMPTS[:3])
        ]
        batch = generate_batch(
            plain_model,
            tokenizer,
            PROMPTS[:3],
            max_new_tokens=MAX_NEW,
            temperature=0.8,
            rngs=[np.random.default_rng(100 + i) for i in range(3)],
        )
        assert batch == singles

    def test_window_truncation_matches_single(self, plain_model, tokenizer):
        long_prompt = " ".join(["alice"] * (plain_model.max_seq_len + 5))
        single = generate(plain_model, tokenizer, long_prompt, max_new_tokens=3)
        batch = generate_batch(
            plain_model, tokenizer, [long_prompt, "bob"], max_new_tokens=3
        )
        assert batch[0] == single
        # The server decodes from a K/V cache, and a sliding window shifts
        # every cached position: a request that crosses max_seq_len
        # mid-decode must drop its cache and still match full recompute.
        spec = ModelSpec("window", 0, dim=32, n_layers=2, n_heads=4, hidden_dim=64, max_seq_len=8)
        small = build_model(spec, vocab_size=tokenizer.vocab_size, seed=3)
        small.to(rt.GPU)
        small.eval()
        prompts = ["alice lives in the", "bob", long_prompt]
        offline = [generate(small, tokenizer, p, max_new_tokens=9) for p in prompts]
        caches = []
        real = batcher_mod.decode_step

        def recording(model, ids, kv, device=None):
            caches.extend(c for c in kv if c not in caches)
            return real(model, ids, kv, device=device)

        with mock.patch.object(batcher_mod, "decode_step", recording):
            with PaletteServer(small, tokenizer, ServingConfig(max_batch_size=4)) as server:
                requests = [server.submit(p, max_new_tokens=9) for p in prompts]
                assert [r.result(timeout=120.0) for r in requests] == offline
        # 6 prompt tokens + 9 new ones crossed the 8-token window ...
        assert len(tokenizer.encode(prompts[0], bos=True)) < spec.max_seq_len
        assert len(tokenizer.encode(prompts[0], bos=True)) + 9 > spec.max_seq_len
        # ... and every cache was dropped on the way out.
        assert len(caches) == len(prompts)
        assert all(cache.nbytes == 0 and cache.length == 0 for cache in caches)

    def test_batched_last_logits_matches_per_row(self, plain_model, tokenizer):
        windows = [
            tokenizer.encode(p, bos=True) for p in ("alice lives", "the", "bob is")
        ]
        batched = batched_last_logits(plain_model, windows)
        for window, got in zip(windows, batched):
            tokens = rt.Tensor.from_numpy(
                np.asarray([window], dtype=np.int64), device=rt.GPU
            )
            expected = plain_model(tokens)._compute()[0, len(window) - 1]
            # A (B, L) bucket hands each Linear's gemm B*L rows, a (1, L)
            # forward L: same tokens, logits equal to float32 rounding.
            assert int(np.argmax(got)) == int(np.argmax(expected))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-5)

    def test_empty_window_raises(self, plain_model):
        with pytest.raises(ValueError):
            batched_last_logits(plain_model, [[]])


@pytest.fixture(scope="module")
def compressed3_model(tokenizer, trained_state):
    """The trained MICRO model at 3 bits (the paper's setting); read-only."""
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
    model.to(rt.GPU)
    for name, param in model.state_dict().items():
        param.copy_(trained_state[name])
    ModelCompressor(DKMConfig(bits=3)).compress(model)
    model.eval()
    return model


@contextlib.contextmanager
def _palette_path(model):
    """Serve ``model``'s clustered layers from one tile cache for a while."""
    clustered = [
        (name, module)
        for name, module in model.named_modules()
        if isinstance(module, ClusteredLinear)
    ]
    cache = TileCache()
    for name, module in clustered:
        module.enable_palette_eval(name=name, cache=cache)
    try:
        yield
    finally:
        for _, module in clustered:
            module.disable_palette_eval()


WORDS = ["alice", "bob", "carol", "the", "capital", "of", "lives", "in", "works", "as", "a"]

arrivals = st.lists(
    st.tuples(
        st.integers(0, 6),  # the step before which the request is admitted
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join),
        st.integers(1, 7),  # its token budget
    ),
    min_size=1,
    max_size=6,
)


class TestCachedDecodeIdentity:
    """The served (K/V-cached, ragged) step against full recompute.

    The reference shares no code with the cached step: per-prompt
    ``generate`` recomputes the whole prefix each token.  Tokens must be
    equal; logits agree to 1e-4 and not bit for bit, because a gemm's
    result depends on how many rows it is handed.
    """

    @given(path=st.sampled_from(["plain", "dense", "palette"]), schedule=arrivals)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_batch_composition_matches_generate(
        self, plain_model, compressed3_model, tokenizer, path, schedule
    ):
        model = plain_model if path == "plain" else compressed3_model
        config = ServingConfig(max_batch_size=4)
        real = batcher_mod.decode_step

        def checked(model, ids, caches, device=None):
            logits = real(model, ids, caches, device=device)
            windows = [row[-model.max_seq_len :] for row in ids]
            for got, want in zip(logits, batched_last_logits(model, windows)):
                np.testing.assert_allclose(got, want, atol=1e-4, rtol=0)
            return logits

        with contextlib.ExitStack() as stack:
            if path == "palette":
                stack.enter_context(_palette_path(model))
            stack.enter_context(mock.patch.object(batcher_mod, "decode_step", checked))
            batcher = ContinuousBatcher(model, tokenizer, config)
            waiting = sorted(
                (
                    (step, ServerRequest(prompt, budget))
                    for step, prompt, budget in schedule
                ),
                key=lambda item: item[0],
            )
            requests = [request for _, request in waiting]
            step = 0
            while waiting or batcher.active:
                while waiting and waiting[0][0] <= step and batcher.free_slots:
                    batcher.admit(waiting.pop(0)[1], now=0.0)
                batcher.step(now=0.0)
                step += 1
            served = [request.result(timeout=0) for request in requests]
            offline = [
                generate(model, tokenizer, r.prompt, max_new_tokens=r.max_new_tokens)
                for r in requests
            ]
        assert served == offline

    def test_cache_grows_with_the_sequence_on_the_models_device(self, plain_model, tokenizer):
        gc.collect()
        before = rt.GPU.tracker.current_bytes
        batcher = ContinuousBatcher(plain_model, tokenizer, ServingConfig())
        batcher.admit(ServerRequest("alice lives in", 40), now=0.0)
        (seq,) = batcher.active
        sizes = []
        for _ in range(30):
            batcher.step(now=0.0)
            sizes.append(seq.kv.nbytes)
        assert rt.GPU.tracker.current_bytes - before >= sizes[-1] > sizes[0] > 0
        # Sized by what the sequence has fed, not by max_seq_len.
        spec = MICRO
        per_position = 2 * spec.n_layers * spec.dim * 4
        assert sizes[0] < per_position * spec.max_seq_len / 2
        assert seq.kv.length == len(seq.ids) - 1
        batcher.abort_all(ServerClosed("done"))
        gc.collect()
        assert rt.GPU.tracker.current_bytes == before


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"max_batch_size": 0},
            {"max_queue_depth": 0},
            {"temperature": math.nan},
            {"temperature": -0.1},
            {"max_new_tokens": 0},
        ],
    )
    def test_serving_validation(self, bad):
        with pytest.raises(ValueError):
            ServingConfig(**bad)

    def test_default_constructors_apply_overrides(self):
        assert ServingConfig(max_batch_size=16).max_batch_size == 16
        assert DKMConfig(bits=2).bits == 2


class TestHardWeightVersioning:
    def _wrapped(self, seed=0):
        layer = nn.Linear(16, 12, bias=True, rng=np.random.default_rng(seed))
        layer.to("gpu")
        wrapped = ClusteredLinear(layer, DKMConfig(bits=3))
        wrapped.eval()
        return wrapped

    def _x(self):
        return rt.Tensor.from_numpy(
            np.random.default_rng(1).standard_normal((4, 16)).astype(np.float32),
            device="gpu",
        )

    def test_eval_output_tracks_inplace_weight_update(self):
        # Regression: the eval-mode hard-weight cache used to be cleared
        # only by train(), so copy_() in eval mode served stale weights.
        wrapped = self._wrapped()
        x = self._x()
        before = wrapped(x).numpy().copy()
        wrapped.inner.weight.copy_(
            np.random.default_rng(9)
            .standard_normal((12, 16))
            .astype(np.float32)
        )
        after = wrapped(x).numpy()
        assert not np.allclose(before, after)

    def test_hard_weight_cache_keys_on_storage_version(self):
        wrapped = self._wrapped()
        first = wrapped._hard_weight()
        assert wrapped._hard_weight() is first  # unchanged weight: reused
        wrapped.inner.weight.copy_(wrapped.inner.weight.numpy() * 1.5)
        assert wrapped._hard_weight() is not first

    def test_palette_path_tracks_weight_update(self):
        # The palette path only runs for detached (no_grad) eval forwards.
        wrapped = self._wrapped()
        cache = TileCache()
        wrapped.enable_palette_eval(name="layer", cache=cache)
        x = self._x()
        with no_grad():
            before = wrapped(x).numpy().copy()
            snapshot_before = wrapped._eval
            assert snapshot_before is not None
            wrapped.inner.weight.copy_(
                np.random.default_rng(9)
                .standard_normal((12, 16))
                .astype(np.float32)
            )
            after = wrapped(x).numpy()
        assert wrapped._eval[0] != snapshot_before[0]
        assert cache.stats.puts == 2 and len(cache) == 1
        assert not np.allclose(before, after)
        wrapped.disable_palette_eval()
        assert wrapped._route is None

    def test_palette_path_tracks_a_storage_swap_at_an_equal_version(self):
        """``to(CPU)`` gives the weight a fresh storage at version 0, and one
        ``copy_`` brings it back to version 1: the executor and its cache
        entry must key on the storage too (the palette path used to serve
        the old weight, |palette - dense| ~ 5)."""
        wrapped = ClusteredLinear(
            nn.Linear(16, 8, rng=np.random.default_rng(0)), DKMConfig(bits=2)
        )
        wrapped.to(rt.GPU)
        wrapped.eval()
        weight = wrapped.inner.weight
        weight.copy_(weight.numpy())
        cache = TileCache()
        wrapped.enable_palette_eval(name="layer", cache=cache)
        x = self._x().numpy()
        with no_grad():
            wrapped(rt.Tensor.from_numpy(x, device=rt.GPU))
            wrapped.to(rt.CPU)
            weight = wrapped.inner.weight
            weight.copy_(-3 * weight.numpy())
            assert weight.storage.version == 1
            palette = wrapped(rt.Tensor.from_numpy(x, device=rt.CPU)).numpy()
            assert wrapped._eval[0][0]() is weight.storage
            assert len(cache) == 1  # the new version replaced the old entry
            assert cache.stats.puts == 2
            wrapped.disable_palette_eval()
            dense = wrapped(rt.Tensor.from_numpy(x, device=rt.CPU)).numpy()
        np.testing.assert_allclose(palette, dense, atol=1e-4)

    def test_served_entry_misses_when_a_new_storage_reuses_the_id(self):
        """Moving the weight off and back frees its storage, and a later
        storage can take the freed id; ``copy_`` then brings it back to the
        old version.  A cache entry stamped with ``id(storage)`` matched
        that key and served the old weight (|served - dense| ~ 5)."""
        wrapped = ClusteredLinear(
            nn.Linear(16, 8, rng=np.random.default_rng(0)), DKMConfig(bits=2)
        )
        wrapped.to(rt.GPU)
        wrapped.eval()
        weight = wrapped.inner.weight
        weight.copy_(weight.numpy())
        cache = TileCache()
        wrapped.enable_palette_eval(name="layer", cache=cache)
        x = self._x().numpy()
        with no_grad():
            wrapped(rt.Tensor.from_numpy(x, device=rt.GPU))
            old_id, old_version = id(weight.storage), weight.storage.version
            # CPython hands a freed id to a later allocation of the same size:
            # keep moving until the weight's storage lands on the old one.
            for step in range(12):
                wrapped.to(rt.CPU if step % 2 == 0 else rt.GPU)
                if id(weight.storage) == old_id:
                    break
            for _ in range(old_version):
                weight.copy_(-3 * weight.numpy())
            device = weight.device
            served = wrapped(rt.Tensor.from_numpy(x, device=device)).numpy()
            assert (cache.stats.misses, cache.stats.puts) == (2, 2)
            wrapped.disable_palette_eval()
            dense = wrapped(rt.Tensor.from_numpy(x, device=device)).numpy()
        np.testing.assert_allclose(served, dense, atol=1e-4)

    def test_palette_matches_dense_forward(self):
        wrapped = self._wrapped()
        x = self._x()
        with no_grad():
            dense = wrapped(x).numpy().copy()
            cache = TileCache()
            wrapped.enable_palette_eval(name="layer", cache=cache)
            palette = wrapped(x).numpy()
        wrapped.disable_palette_eval()
        np.testing.assert_allclose(palette, dense, atol=1e-4)

    def test_grad_enabled_forward_keeps_dense_path(self):
        wrapped = self._wrapped()
        cache = TileCache()
        wrapped.enable_palette_eval(name="layer", cache=cache)
        wrapped(self._x())  # grad enabled: palette path must not engage
        assert len(cache) == 0 and wrapped.served_bytes == 0
        assert wrapped._eval[3] is not None  # the dense Tensor served it
        wrapped.disable_palette_eval()


class TestPaletteServer:
    def _offline(self, model, tokenizer):
        return [
            generate(model, tokenizer, p, max_new_tokens=MAX_NEW) for p in PROMPTS
        ]

    def test_sequential_matches_offline_dense(self, served_model, tokenizer):
        offline = self._offline(served_model, tokenizer)
        config = ServingConfig(max_batch_size=4)
        with PaletteServer(served_model, tokenizer, config=config) as server:
            got = [server.generate(p, max_new_tokens=MAX_NEW) for p in PROMPTS]
            assert server._palette_layers
            assert all(
                server.tile_cache.holds(name) for name, _ in server._palette_layers
            )
        assert got == offline
        # close() restores the dense eval path on every clustered layer.
        assert server._palette_layers == []
        assert len(server.tile_cache) == 0
        assert all(
            module._route is None
            for _, module in served_model.named_modules()
            if isinstance(module, ClusteredLinear)
        )

    def test_concurrent_matches_offline(self, served_model, tokenizer):
        offline = self._offline(served_model, tokenizer)
        results: list[str | None] = [None] * len(PROMPTS)
        config = ServingConfig(max_batch_size=4)
        with PaletteServer(served_model, tokenizer, config=config) as server:

            def client(indices):
                for i in indices:
                    results[i] = server.generate(
                        PROMPTS[i], max_new_tokens=MAX_NEW, timeout=120.0
                    )

            threads = [
                threading.Thread(target=client, args=([i, i + 3],))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == offline

    def test_stats_and_byte_accounting(self, served_model, tokenizer):
        config = ServingConfig(max_batch_size=4)
        with PaletteServer(served_model, tokenizer, config=config) as server:
            requests = [server.submit(p, max_new_tokens=MAX_NEW) for p in PROMPTS]
            texts = [request.result(timeout=120.0) for request in requests]
            report = server.stats()
        assert report.submitted == len(PROMPTS)
        assert report.completed == len(PROMPTS)
        assert report.decode_steps > 0
        assert report.mean_batch_occupancy > 0
        assert report.tokens_generated == sum(r.tokens_generated for r in requests)
        assert report.weight_bytes_read > 0
        # Each prompt counted once at submit, each completion once when it won.
        assert report.activation_bytes == sum(
            len(text.encode("utf-8")) for text in PROMPTS + texts
        )
        assert report.kv_cache_peak_bytes > 0
        assert report.kv_cache_bytes == 0  # everything retired, everything released

    def test_serving_keeps_counters_not_histories(self, served_model, tokenizer):
        """64 resolved requests leave no per-request state in the stats and
        nothing in the traffic ledger: serving moves no device bytes."""
        ledger = global_ledger()
        before = (ledger.totals(), len(ledger))
        config = ServingConfig(max_batch_size=8)
        with PaletteServer(served_model, tokenizer, config=config) as server:
            requests = [
                server.submit(PROMPTS[i % len(PROMPTS)], max_new_tokens=2) for i in range(64)
            ]
            for request in requests:
                request.result(timeout=120.0)
            report = server.stats()
        state = vars(server.stats_acc)
        counters = {name: value for name, value in state.items() if not name.startswith("_")}
        assert all(type(value) is int for value in counters.values()), counters
        assert not any(isinstance(value, (list, dict, set, tuple)) for value in state.values())
        assert report.completed == report.submitted == 64
        assert (ledger.totals(), len(ledger)) == before

    def test_cold_step_charges_the_palette_and_warm_step_the_resident_weight(self):
        """Nine words make ``lm_head`` (13, 32).  The cold step dequantizes
        every layer and charges each palette (lut + uint8 indices); a warm
        step reads each layer's resident float32 weight once, which is
        exactly the cache's resident bytes."""
        words = ["alice", "bob", "carol", "the", "capital", "of", "lives", "in", "works"]
        decoder = WordTokenizer(words)
        model = build_model(MICRO, vocab_size=decoder.vocab_size, seed=0)
        model.to(rt.GPU)
        ModelCompressor(DKMConfig(bits=4)).compress(model)
        assert model.lm_head.inner.weight.shape == (13, 32)
        with PaletteServer(model, decoder) as server:
            server.submit("alice lives in", max_new_tokens=1).result(timeout=30)
            cold = server.stats().weight_bytes_read
            server.submit("alice lives in", max_new_tokens=1).result(timeout=30)
            warm = server.stats().weight_bytes_read - cold
            snapshots = [module._eval for _, module in server._palette_layers]
            assert cold == sum(lut.nbytes + indices.size for _, lut, indices, _ in snapshots)
            assert warm == server.tile_cache.resident_bytes() == 83_584
            assert len(server.tile_cache) == len(snapshots)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_submit_rejects_a_budget_below_one(self, served_model, tokenizer, budget):
        """``0`` used to decode the config default and ``-3`` one token."""
        with PaletteServer(served_model, tokenizer) as server:
            with pytest.raises(ValueError, match=f"max_new_tokens must be >= 1, got {budget}"):
                server.submit(PROMPTS[0], max_new_tokens=budget)
            assert server.stats().submitted == 0
            request = server.submit(PROMPTS[0], max_new_tokens=None)
            assert request.max_new_tokens == server.config.max_new_tokens
            request.result(timeout=30)

    def test_admission_burst_is_shed_and_accounted(self, served_model, tokenizer):
        config = ServingConfig(max_batch_size=1, max_queue_depth=1)
        with PaletteServer(served_model, tokenizer, config=config) as server:
            accepted, rejected = [], 0
            for _ in range(8):
                try:
                    accepted.append(server.submit(PROMPTS[0], max_new_tokens=3))
                except AdmissionError:
                    rejected += 1
            for request in accepted:
                request.result(timeout=120.0)
            report = server.stats()
        assert rejected > 0
        assert rejected + len(accepted) == 8
        assert report.rejected_admission == rejected
        assert report.completed == len(accepted)

    def test_microscopic_deadline_rejected(self, served_model, tokenizer):
        with PaletteServer(served_model, tokenizer) as server:
            request = server.submit(PROMPTS[0], max_new_tokens=3, deadline_s=1e-6)
            with pytest.raises(DeadlineExceeded):
                request.result(timeout=120.0)
            assert server.stats().rejected_deadline + server.stats().aborted_deadline >= 1

    def test_submit_when_not_running_raises(self, served_model, tokenizer):
        server = PaletteServer(served_model, tokenizer)
        try:
            with pytest.raises(ServerClosed):
                server.submit("hi")
        finally:
            server.close()

    def test_stop_fails_queued_requests(self, served_model, tokenizer):
        config = ServingConfig(max_batch_size=1)
        server = PaletteServer(served_model, tokenizer, config=config)
        server.start()
        requests = [server.submit(p, max_new_tokens=2) for p in PROMPTS[:4]]
        server.close()
        for request in requests:
            assert request.done
            if not request.ok:
                assert isinstance(request.error, (ServerClosed, DeadlineExceeded))

    def test_a_second_server_on_a_served_model_is_refused(self, served_model, tokenizer):
        """Two live servers on one model used to share its layers: the
        second took every route, and closing either sent the other's
        layers back to the dense path (no CRC check, no fault hook and no
        weight bytes)."""
        with PaletteServer(served_model, tokenizer) as s1:
            with pytest.raises(RuntimeError, match="already served"):
                PaletteServer(served_model, tokenizer)
            layers = s1._palette_layers
            assert all(module._route[1] is s1.tile_cache for _, module in layers)
            s1.generate(PROMPTS[0], max_new_tokens=1)  # cold: fills s1's cache
            hits = s1.tile_cache.stats.hits
            weight_bytes = s1.stats().weight_bytes_read
            s1.generate(PROMPTS[0], max_new_tokens=1)
            assert s1.tile_cache.stats.hits - hits == len(layers) == 15
            assert (
                s1.stats().weight_bytes_read - weight_bytes
                == s1.tile_cache.resident_bytes()
            )
        assert all(module._route is None for _, module in layers)
        with PaletteServer(served_model, tokenizer) as s2:  # s1 closed: allowed
            assert all(module._route[1] is s2.tile_cache for _, module in layers)

    def test_stats_count_only_this_servers_bytes(self, served_model, tokenizer):
        """A fresh server used to report its predecessor's bytes."""
        with PaletteServer(served_model, tokenizer) as first:
            first.generate(PROMPTS[0], max_new_tokens=2)
        used = first.stats()
        assert used.weight_bytes_read > 0 and used.activation_bytes > 0
        with PaletteServer(served_model, tokenizer) as fresh:
            report = fresh.stats()
        assert (report.completed, report.weight_bytes_read, report.activation_bytes) == (0, 0, 0)


def _compressed(tokenizer, trained_state):
    """A fresh trained MICRO model, compressed to 4 bits and in eval mode."""
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
    model.to(rt.GPU)
    for name, param in model.state_dict().items():
        param.copy_(trained_state[name])
    ModelCompressor(DKMConfig(bits=4)).compress(model)
    model.eval()
    return model


def _clustered(model):
    return [m for _, m in model.named_modules() if isinstance(m, ClusteredLinear)]


class TestEvalSnapshot:
    """One ``(lut, indices)`` snapshot per weight version feeds the dense
    Tensor and the served weight; only the dense Tensor is ever dropped."""

    def test_served_layers_hold_no_dense_tensor(self, tokenizer, trained_state):
        model = _compressed(tokenizer, trained_state)
        gpu = global_registry().get("gpu")
        gc.collect()
        before = gpu.current_bytes
        generate(model, tokenizer, PROMPTS[0], max_new_tokens=3)
        gc.collect()
        assert gpu.current_bytes > before  # the dense path built its Tensors
        server = PaletteServer(model, tokenizer)
        try:
            gc.collect()
            assert gpu.current_bytes == before
            assert all(m._eval[3] is None and m._eval[2] is not None for m in _clustered(model))
        finally:
            server.close()

    def test_eval_passes_reuse_the_dense_tensor(self, world, tokenizer, trained_state):
        model = _compressed(tokenizer, trained_state)
        suites = standard_suites(world, n_items=2)
        first = evaluate_suites(model, tokenizer, suites, rt.GPU)
        dense = [m._eval[3] for m in _clustered(model)]
        assert all(d is not None for d in dense)
        second = evaluate_suites(model, tokenizer, suites, rt.GPU)
        assert all(m._eval[3] is d for m, d in zip(_clustered(model), dense))
        names = [suite.name for suite in suites]
        assert second.as_row(names) == first.as_row(names)
        model.train()
        assert all(m._eval[3] is None for m in _clustered(model))

    def test_no_uniquify_across_serve_and_close(self, tokenizer, trained_state):
        model = _compressed(tokenizer, trained_state)
        offline = generate(model, tokenizer, PROMPTS[0], max_new_tokens=2)
        calls = uniquify_call_count()
        with PaletteServer(model, tokenizer) as server:
            assert server.generate(PROMPTS[0], max_new_tokens=2) == offline
        assert generate(model, tokenizer, PROMPTS[0], max_new_tokens=2) == offline
        assert uniquify_call_count() == calls


class TestFacade:
    def test_compress_wraps_linears(self, tokenizer):
        model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
        model.to(rt.GPU)
        compressor = repro.compress(model, bits=3)
        assert isinstance(compressor, ModelCompressor)
        clustered = [
            m for _, m in model.named_modules() if isinstance(m, ClusteredLinear)
        ]
        assert clustered
        assert all(m.dkm_config.bits == 3 for m in clustered)

    def test_serve_overrides(self, served_model, tokenizer):
        server = repro.serve(
            served_model, tokenizer, start=False, max_batch_size=3
        )
        try:
            assert isinstance(server, PaletteServer)
            assert server.config.max_batch_size == 3
            assert not server.running
        finally:
            server.close()

    def test_serve_started_by_default(self, served_model, tokenizer):
        server = repro.serve(served_model, tokenizer)
        try:
            assert server.running
            assert server.generate(PROMPTS[0], max_new_tokens=2, timeout=120.0)
        finally:
            server.close()
        assert not server.running

    def test_serve_config_and_overrides_conflict(self, served_model, tokenizer):
        with pytest.raises(ValueError, match="not both"):
            repro.serve(
                served_model,
                tokenizer,
                config=ServingConfig(),
                max_batch_size=2,
            )

    def test_reexports(self):
        assert repro.DKMConfig is DKMConfig
        assert repro.ModelCompressor is ModelCompressor
        assert repro.ServingConfig is ServingConfig
        assert repro.PaletteServer is PaletteServer
        # The ``Cls(**overrides)`` wrappers are gone; build the configs.
        for module in (repro, repro.core, repro.serving):
            for name in (
                "get_default_dkm_config",
                "get_default_compressor_config",
                "get_default_serving_config",
                "CompressorConfig",
            ):
                assert not hasattr(module, name), (module.__name__, name)
        # Old deep imports stay valid.
        from repro.core.compressor import ModelCompressor as deep

        assert deep is ModelCompressor
