"""The compressor's sweep loops.

Every compression sweep -- ``refine_all``, ``precluster``, ``finalize``
-- is one loop on the calling thread over the wrapped layers, in
insertion order.  The contract under test: a sweep equals calling its
functions layer by layer by hand (centroids, assignments, palettized artifacts, reconstruction
errors), it is repeatable run to run, its results come back in the
caller's layer order, an op error propagates and leaves no trace,
and each layer's step cache sees exactly one uniquify per weight
version -- through warm sweeps, optimizer writes, cache releases and a
changed layer set.
"""

import dataclasses

import numpy as np
import pytest

import repro.nn as nn
from repro.core import DKMConfig, ModelCompressor
from repro.core.compressor import LayerClusterResult, palettize_op
from repro.tensor.tensor import Tensor

LAYER_COUNTS = [1, 4, 6]


class _Stack(nn.Module):
    def __init__(self, names, in_f=32, out_f=24, seed=0):
        super().__init__()
        for i, name in enumerate(names):
            setattr(
                self,
                name,
                nn.Linear(in_f, out_f, bias=False, rng=np.random.default_rng(seed + i)),
            )


def _compressor(n_layers=4, seed=0, names=None):
    names = names or [f"layer{i}" for i in range(n_layers)]
    stack = _Stack(names, seed=seed)
    stack.to("gpu")
    compressor = ModelCompressor(DKMConfig(bits=3, iters=3))
    compressor.compress(stack)
    return compressor, stack


def _stats(compressor):
    return {
        name: dataclasses.asdict(wrapper.step_cache.stats)
        for name, wrapper in compressor.wrapped.items()
    }


def _parked_table(cache):
    """The attention table ``cache`` carries."""
    return cache._table


def _assert_results_equal(reference, candidate):
    assert list(reference) == list(candidate)
    for name in reference:
        assert np.array_equal(reference[name].centroids, candidate[name].centroids), name
        assert np.array_equal(reference[name].assignments, candidate[name].assignments)
        assert reference[name].temperature == candidate[name].temperature
        assert reference[name].iterations_run == candidate[name].iterations_run
        assert (
            reference[name].reconstruction_error
            == candidate[name].reconstruction_error
        )


def _assert_reports_equal(reference, candidate):
    assert list(reference.palettized) == list(candidate.palettized)
    for name, pal in reference.palettized.items():
        assert np.array_equal(pal.lut, candidate.palettized[name].lut), name
        assert np.array_equal(pal.packed, candidate.palettized[name].packed), name
    assert reference.total_bytes == candidate.total_bytes


def _precluster_by_hand(compressor, compute_error=False):
    """``precluster``'s refine + hard assign called layer by layer."""
    results = {}
    for name, wrapper in compressor.wrapped.items():
        clusterer, weights = wrapper.clusterer, wrapper.inner.weight
        state = clusterer.refine(weights)
        assignments = np.asarray(clusterer.hard_assign(weights), dtype=np.int64)
        error = clusterer.reconstruction_error(weights) if compute_error else None
        results[name] = LayerClusterResult(
            centroids=state.centroids.copy(),
            temperature=state.temperature,
            iterations_run=state.iterations_run,
            assignments=assignments,
            reconstruction_error=error,
        )
    return results


def _palettize_by_hand(compressor, bits):
    """``finalize``'s per-layer :func:`palettize_op`, layer by layer."""
    return {
        name: palettize_op(wrapper.clusterer, wrapper.inner.weight, bits)
        for name, wrapper in compressor.wrapped.items()
    }


class TestSweepEqualsPerLayerOps:
    @pytest.mark.parametrize("n_layers", LAYER_COUNTS)
    def test_refine_all_matches_per_layer_refine(self, n_layers):
        swept, _ = _compressor(n_layers=n_layers)
        reference, _ = _compressor(n_layers=n_layers)
        states = swept.refine_all()
        states_r = {
            name: wrapper.clusterer.refine(wrapper.inner.weight)
            for name, wrapper in reference.wrapped.items()
        }
        assert list(states) == list(states_r)
        for name in states_r:
            assert np.array_equal(states[name].centroids, states_r[name].centroids)
            assert states[name].temperature == states_r[name].temperature

    @pytest.mark.parametrize("n_layers", LAYER_COUNTS)
    def test_precluster_matches_per_layer_op(self, n_layers):
        swept, _ = _compressor(n_layers=n_layers)
        reference, _ = _compressor(n_layers=n_layers)
        for _ in range(2):  # the second sweep runs warm
            _assert_results_equal(
                _precluster_by_hand(reference, compute_error=True),
                swept.precluster(compute_error=True),
            )
        assert _stats(swept) == _stats(reference)

    @pytest.mark.parametrize("n_layers", LAYER_COUNTS)
    def test_finalize_matches_per_layer_palettize(self, n_layers):
        swept, stack = _compressor(n_layers=n_layers)
        reference, _ = _compressor(n_layers=n_layers)
        report = swept.finalize(stack)
        by_hand = _palettize_by_hand(reference, bits=3)
        assert list(report.palettized) == list(by_hand)
        for name, pal in by_hand.items():
            assert np.array_equal(report.palettized[name].lut, pal.lut)
            assert np.array_equal(report.palettized[name].packed, pal.packed)

    def test_precluster_centroids_are_the_refine_all_centroids(self):
        refined, _ = _compressor(seed=3)
        preclustered, _ = _compressor(seed=3)
        states = refined.refine_all()
        results = preclustered.precluster()
        for name in states:
            assert np.array_equal(states[name].centroids, results[name].centroids)

    def test_compute_error_only_adds_the_error(self):
        quiet, _ = _compressor(seed=2)
        loud, _ = _compressor(seed=2)
        res_q = quiet.precluster()
        res_l = loud.precluster(compute_error=True)
        for name in res_q:
            assert res_q[name].reconstruction_error is None
            assert res_l[name].reconstruction_error > 0
            assert np.array_equal(res_q[name].centroids, res_l[name].centroids)
            assert np.array_equal(res_q[name].assignments, res_l[name].assignments)


class TestTableParking:
    """Sweeps park no attention table: only ``edkm_cluster``'s forward
    reads one, and its own ``refine`` parks it first."""

    @pytest.mark.parametrize("sweep", ["refine_all", "precluster", "finalize"])
    def test_sweep_parks_no_table(self, sweep):
        compressor, stack = _compressor(seed=5)
        for _ in range(2):  # the second sweep runs warm
            if sweep == "finalize":
                compressor.finalize(stack)
            else:
                getattr(compressor, sweep)()
            for name, wrapper in compressor.wrapped.items():
                assert _parked_table(wrapper.step_cache) is None, name
        total = compressor.fastpath_report().total
        assert (total.table_hits, total.table_misses) == (0, 0)

    def test_refine_sweep_takes_no_cache_table(self):
        compressor, _ = _compressor(n_layers=1)
        with pytest.raises(TypeError, match="cache_table"):
            compressor.refine_all(cache_table=True)

    def test_training_forward_after_precluster_reads_its_own_table(self):
        compressor, stack = _compressor(n_layers=2, seed=7)
        compressor.precluster()
        stack.train()
        x = Tensor.from_numpy(
            np.random.default_rng(0).standard_normal((3, 32)).astype(np.float32),
            device="gpu",
        )
        for wrapper in compressor.wrapped.values():
            wrapper(x)
        for name, wrapper in compressor.wrapped.items():
            stats = wrapper.step_cache.stats
            assert (stats.table_hits, stats.table_misses) == (1, 0), name


class TestRepeatability:
    @pytest.mark.parametrize("n_layers", LAYER_COUNTS)
    def test_precluster_is_repeatable(self, n_layers):
        first, _ = _compressor(n_layers=n_layers)
        second, _ = _compressor(n_layers=n_layers)
        for _ in range(2):
            _assert_results_equal(
                first.precluster(compute_error=True),
                second.precluster(compute_error=True),
            )
        assert _stats(first) == _stats(second)

    def test_finalize_artifacts_bit_identical(self):
        first, stack_a = _compressor(n_layers=6)
        second, stack_b = _compressor(n_layers=6)
        _assert_reports_equal(first.finalize(stack_a), second.finalize(stack_b))

    def test_finalize_after_precluster_is_repeatable(self):
        first, stack_a = _compressor(seed=3)
        second, stack_b = _compressor(seed=3)
        first.precluster()
        second.precluster()
        _assert_reports_equal(first.finalize(stack_a), second.finalize(stack_b))

    def test_training_grads_identical_after_sweep(self):
        grads = []
        for _ in range(2):
            compressor, stack = _compressor(n_layers=2, seed=7)
            compressor.precluster()
            x = np.random.default_rng(11).standard_normal((5, 32)).astype(np.float32)
            stack.train()
            out = stack.layer0(Tensor.from_numpy(x, device="gpu"))
            (out * out).sum().backward()
            assert stack.layer0.inner.weight.grad is not None
            grads.append((stack.layer0.inner.weight.grad.numpy(), _stats(compressor)))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert grads[0][1] == grads[1][1]

    def test_training_grads_identical_after_warm_sweeps(self):
        grads = []
        for _ in range(2):
            compressor, stack = _compressor(n_layers=2, seed=7)
            for _ in range(2):  # the second sweep runs warm
                compressor.precluster()
            x = np.random.default_rng(11).standard_normal((5, 32)).astype(np.float32)
            stack.train()
            out = stack.layer1(Tensor.from_numpy(x, device="gpu"))
            (out * out).sum().backward()
            grads.append(stack.layer1.inner.weight.grad.numpy())
        assert np.array_equal(grads[0], grads[1])


class TestSweepOrderAndAccounting:
    def test_results_come_back_in_insertion_order(self):
        names = ["w6", "a0", "m3", "b1", "z9", "c2", "k5"]
        compressor, _ = _compressor(names=names)
        assert list(compressor.wrapped) == names
        assert list(compressor.refine_all()) == names
        assert list(compressor.precluster()) == names

    @pytest.mark.parametrize("sweep", ["finalize", "precluster", "refine_all"])
    def test_every_sweep_visits_every_layer_once(self, sweep, monkeypatch):
        compressor, stack = _compressor(n_layers=3)
        visited = []
        for name, wrapper in compressor.wrapped.items():
            refine = wrapper.clusterer.refine

            def counting(weights, *args, _name=name, _refine=refine, **kwargs):
                visited.append(_name)
                return _refine(weights, *args, **kwargs)

            monkeypatch.setattr(wrapper.clusterer, "refine", counting)
        if sweep == "finalize":
            results = compressor.finalize(stack).palettized
        else:
            results = getattr(compressor, sweep)()
        assert visited == list(compressor.wrapped)
        assert list(results)[: len(visited)] == visited

    def test_op_exception_propagates_and_leaves_no_trace(self, monkeypatch):
        """An op bug is deterministic, so it is raised, and the next sweep
        still matches a fresh run."""
        failing, _ = _compressor(n_layers=2)
        reference, _ = _compressor(n_layers=2)
        clusterer = failing.wrapped["layer0"].clusterer
        with monkeypatch.context() as patch:

            def broken(weights, *args, **kwargs):
                raise TypeError("refine bug")

            patch.setattr(clusterer, "refine", broken)
            with pytest.raises(TypeError, match="refine bug"):
                failing.refine_all()
        _assert_results_equal(
            reference.precluster(compute_error=True),
            failing.precluster(compute_error=True),
        )

    @pytest.mark.parametrize("sweep", ["finalize", "precluster", "refine_all"])
    def test_error_on_the_last_layer_stops_the_sweep_there(self, sweep, monkeypatch):
        """Each sweep calls its functions directly, so a failure after
        earlier layers have run is raised as-is, and the sweep has done
        exactly the earlier layers' work: their warm-started ``refine``
        for ``refine_all`` / ``precluster``, nothing for ``finalize``
        (:func:`hard_cluster` refines a copy)."""
        failing, stack = _compressor(n_layers=3)
        reference, _ = _compressor(n_layers=3)
        clusterer = failing.wrapped["layer2"].clusterer
        with monkeypatch.context() as patch:

            def broken(weights, *args, **kwargs):
                raise TypeError("last-layer bug")

            patch.setattr(clusterer, "refine", broken)
            with pytest.raises(TypeError, match="last-layer bug"):
                if sweep == "finalize":
                    failing.finalize(stack)
                else:
                    getattr(failing, sweep)()
        if sweep != "finalize":
            for name in ["layer0", "layer1"]:
                wrapper = reference.wrapped[name]
                wrapper.clusterer.refine(wrapper.inner.weight)
        _assert_results_equal(
            reference.precluster(compute_error=True),
            failing.precluster(compute_error=True),
        )


class TestStepCacheCounters:
    def test_one_uniquify_per_layer_for_a_precluster_sweep(self):
        compressor, _ = _compressor(n_layers=6)
        compressor.precluster()
        for name, stats in compressor.fastpath_report().per_layer.items():
            assert stats.uniquify_misses == 1, name

    def test_warm_sweep_never_reuniquifies(self):
        compressor, _ = _compressor()
        compressor.precluster()
        misses = {n: s["uniquify_misses"] for n, s in _stats(compressor).items()}
        hits = {n: s["uniquify_hits"] for n, s in _stats(compressor).items()}
        compressor.precluster()
        for name, stats in _stats(compressor).items():
            assert stats["uniquify_misses"] == misses[name]
            assert stats["uniquify_hits"] > hits[name]

    def test_optimizer_write_reuniquifies_only_the_written_layer(self):
        compressor, _ = _compressor(n_layers=2)
        compressor.precluster()
        (name, wrapper), (other, _) = list(compressor.wrapped.items())
        wrapper.inner.weight.copy_(wrapper.inner.weight.numpy() * 0.5)
        compressor.precluster()
        stats = _stats(compressor)
        assert stats[name]["uniquify_misses"] == 2
        assert stats[other]["uniquify_misses"] == 1

    def test_optimizer_write_matches_a_fresh_history(self):
        """A written layer is swept against its new bytes, exactly as a
        run that made the same write does."""
        results = []
        for _ in range(2):
            compressor, _ = _compressor(n_layers=2, seed=4)
            compressor.precluster()
            wrapper = compressor.wrapped["layer0"]
            wrapper.inner.weight.copy_(wrapper.inner.weight.numpy() * 0.5)
            results.append(compressor.precluster(compute_error=True))
        _assert_results_equal(*results)

    def test_invalidated_step_caches_force_one_miss_per_layer(self):
        compressor, _ = _compressor(n_layers=3)
        compressor.precluster()
        for wrapper in compressor.wrapped.values():
            wrapper.step_cache.invalidate()
        compressor.precluster()
        for stats in _stats(compressor).values():
            assert stats["uniquify_misses"] == 2

    def test_invalidated_step_caches_keep_results(self):
        released, _ = _compressor(seed=9)
        kept, _ = _compressor(seed=9)
        for compressor in (released, kept):
            compressor.precluster()
        for wrapper in released.wrapped.values():
            wrapper.step_cache.invalidate()
        _assert_results_equal(
            kept.precluster(compute_error=True),
            released.precluster(compute_error=True),
        )

    def test_fastpath_report_is_a_snapshot(self):
        compressor, _ = _compressor(n_layers=2)
        compressor.precluster()
        before = compressor.fastpath_report()
        frozen = {n: dataclasses.asdict(s) for n, s in before.per_layer.items()}
        compressor.precluster()
        after = compressor.fastpath_report()
        assert {n: dataclasses.asdict(s) for n, s in before.per_layer.items()} == frozen
        for name in frozen:
            assert after.per_layer[name].uniquify_hits > frozen[name]["uniquify_hits"]


class TestLayerSetChange:
    def test_dropping_a_layer_keeps_the_others_identical(self):
        dropped, _ = _compressor(n_layers=4)
        kept, _ = _compressor(n_layers=4)
        dropped.precluster(compute_error=True)
        kept.precluster(compute_error=True)
        del dropped.wrapped["layer3"]
        res_d = dropped.precluster(compute_error=True)
        res_k = kept.precluster(compute_error=True)
        assert list(res_d) == ["layer0", "layer1", "layer2"]
        _assert_results_equal({n: res_k[n] for n in res_d}, res_d)

    def test_layer_swapped_in_runs_cold_like_a_fresh_layer(self):
        """A layer that joins after a sweep is swept cold: the same
        result and counters as in a compressor that sweeps it first."""
        grown, _ = _compressor(n_layers=2)
        grown.precluster()
        newcomer, _ = _compressor(names=["late"], seed=11)
        fresh, _ = _compressor(names=["late"], seed=11)
        grown.wrapped["late"] = newcomer.wrapped["late"]
        res_g = grown.precluster(compute_error=True)
        res_f = fresh.precluster(compute_error=True)
        _assert_results_equal(res_f, {"late": res_g["late"]})
        assert _stats(grown)["late"] == _stats(fresh)["late"]
