"""Per-layer replays for traced runs.

After the timed region each system layer's public function is replayed on
the workload's own final weights, one span per (system layer, model
layer), so the trace holds both waterfalls: which module costs what, and
which model layer dominates it.  Replays never touch the live clusterers:
each works on a fresh :class:`DKMClusterer` carrying a copy of the layer's
converged state.  Reported times are at reference speed (see
``common.HostSpeed``), sampled before and after each group of repeats.
"""

from __future__ import annotations

import copy
import statistics
from dataclasses import dataclass

import numpy as np

from repro.core.compressor import ModelCompressor, palettize_op
from repro.core.dkm import DKMClusterer
from repro.core.edkm import EDKMClusterAssign
from repro.core.palettize import kmeans_palettize
from repro.core.uniquify import uniquify
from repro.distributed.collective import all_gather, shard_rows
from repro.tensor import Tensor
from repro.tensor.autograd import no_grad, saved_tensors_hooks

from common import BITS, HostSpeed, Metric, Row
from tracer import Tracer

REPEATS = 3


def _fresh_clusterer(wrapper) -> DKMClusterer:
    """A new clusterer (cold step cache) warm-started like ``wrapper``'s."""
    clusterer = DKMClusterer(wrapper.dkm_config)
    clusterer.state = copy.deepcopy(wrapper.clusterer.state)
    return clusterer


@dataclass
class Replays:
    """The replays of one traced run; each writes its metrics to ``row.layers``."""

    row: Row
    tracer: Tracer
    host: HostSpeed
    compressor: ModelCompressor

    def _ms(self, spans: list[dict]) -> float:
        return statistics.median(self.host.ms(s["start"], s["end"]) for s in spans)

    def median_ms(self, name, layer, call, prepare=None, repeats=REPEATS, **attrs) -> Metric:
        """Median of ``repeats`` spans around ``call``, in ms at reference speed.

        With ``prepare``, each repeat first runs it outside the span and hands
        what it returns to ``call``.
        """
        spans = []
        self.host.sample()
        for _ in range(repeats):
            args = () if prepare is None else (prepare(),)
            with self.tracer.span(name, layer=layer, **attrs) as span:
                call(*args)
            spans.append(span)
        self.host.sample()
        return Metric(self._ms(spans), repeats)

    def _layers(self):
        """(name, wrapper, weight) of every clustered layer."""
        return [(n, w, w.inner.weight) for n, w in self.compressor.wrapped.items()]

    def uniquify(self) -> None:
        """``uniquify`` on every clustered weight: cost per Mweight and u / |W|."""
        total_ms, total_weights, ratios = 0.0, 0, []
        for name, _, weight in self._layers():
            unique = uniquify(weight._np(), weight.dtype)
            ratio = unique.n_unique / unique.n_weights
            ratios.append(ratio)
            total_weights += unique.n_weights
            total_ms += self.median_ms(
                "core.uniquify", name, lambda: uniquify(weight._np(), weight.dtype),
                n_unique=unique.n_unique, unique_ratio=ratio,
            ).value  # fmt: skip
        layers = self.row.layers
        layers["core.uniquify.ms_per_mweight"] = Metric(total_ms / (total_weights / 1e6), len(ratios))
        layers["core.uniquify.unique_ratio"] = Metric(statistics.fmean(ratios), len(ratios))

    def refine(self) -> dict[str, float]:
        """Per-layer ``refine`` against a cold and then a warm step cache; the cold ms by layer."""
        cold, warm = {}, 0.0
        with no_grad():
            for name, wrapper, weight in self._layers():
                cold[name] = self.median_ms(
                    "core.dkm.refine_cold", name, lambda clusterer: clusterer.refine(weight),
                    prepare=lambda: _fresh_clusterer(wrapper),
                ).value  # fmt: skip
                warmed = _fresh_clusterer(wrapper)
                warmed.refine(weight)
                warm += self.median_ms(
                    "core.dkm.refine_warm", name, lambda: warmed.refine(weight)
                ).value
        self.row.layers["core.dkm.refine_cold_ms"] = Metric(sum(cold.values()), len(cold))
        self.row.layers["core.dkm.refine_warm_ms"] = Metric(warm, len(cold))
        return cold

    def cluster_dense(self) -> None:
        """The dense DKM forward (grad-recording, so no table shortcut) per layer."""
        total = 0.0
        for name, wrapper, weight in self._layers():
            total += self.median_ms(
                "core.dkm.cluster_dense", name, lambda clusterer: clusterer.cluster_dense(weight),
                prepare=lambda: _fresh_clusterer(wrapper),
            ).value  # fmt: skip
        self.row.layers["core.dkm.cluster_dense_ms"] = Metric(total, len(self.compressor.wrapped))

    def edkm_assign(self) -> None:
        """``EDKMClusterAssign`` forward and backward (ones gradient) per layer.

        Saved bytes are counted with a pass-through saved-tensor hook, so they
        are what the op hands the offload pipeline, before M or S touch them.
        """
        forward_ms = backward_ms = 0.0
        saved_bytes = weights = 0
        for name, wrapper, weight in self._layers():
            fwd, bwd = [], []
            self.host.sample()
            for _ in range(REPEATS):
                clusterer = _fresh_clusterer(wrapper)
                with no_grad():
                    state = clusterer.refine(weight, cache_table=True)
                centroids = Tensor.from_numpy(
                    state.centroids, dtype="float32", device=weight.device
                )
                packed: list[int] = []

                def pack(tensor):
                    packed.append(tensor.numel * tensor.dtype.itemsize)
                    return tensor

                with saved_tensors_hooks(pack, lambda tensor: tensor):
                    with self.tracer.span("core.edkm.assign_forward", layer=name) as span:
                        out = EDKMClusterAssign.apply(
                            weight, centroids, state.temperature, cache=clusterer.fastpath
                        )
                    fwd.append(span)
                    grad = np.ones(out.shape, dtype=np.float32)
                    with self.tracer.span("core.edkm.assign_backward", layer=name) as span:
                        out.backward(grad)
                    bwd.append(span)
            self.host.sample()
            weight.grad = None
            forward_ms += self._ms(fwd)
            backward_ms += self._ms(bwd)
            saved_bytes += sum(packed)
            weights += weight.numel
        n = len(self.compressor.wrapped)
        layers = self.row.layers
        layers["core.edkm.assign_forward_ms"] = Metric(forward_ms, n)
        layers["core.edkm.assign_backward_ms"] = Metric(backward_ms, n)
        layers["core.edkm.saved_bytes_per_weight"] = Metric(saved_bytes / weights, n)

    def palettize(self, model) -> None:
        """``palettize_op`` per clustered layer and ``kmeans_palettize`` per embedding."""
        layer_ms = 0.0
        with no_grad():
            for name, wrapper, weight in self._layers():
                layer_ms += self.median_ms(
                    "core.palettize.layer", name,
                    lambda clusterer: palettize_op(clusterer, weight, BITS),
                    prepare=lambda: _fresh_clusterer(wrapper),
                ).value  # fmt: skip
        layers = self.row.layers
        layers["core.palettize.layer_ms"] = Metric(layer_ms, len(self.compressor.wrapped))
        embedding = getattr(model, "embed", None)
        if embedding is not None:
            bits = self.compressor.embedding_bits
            layers["core.palettize.embedding_ms"] = self.median_ms(
                "core.palettize.embedding", "embed",
                lambda: kmeans_palettize(embedding.weight._compute(), bits), repeats=1,
            )  # fmt: skip

    def shard_gather(self, group) -> None:
        """``shard_rows`` + ``all_gather`` on an index-list-sized tensor.

        The index list of the largest clustered layer (one uint16 per weight)
        is what sharding splits in ``finetune_mus``.  Run this after the
        ledger metrics are read: both collectives write to the global ledger.
        """
        weight = max((w for _, _, w in self._layers()), key=lambda w: w.numel)
        flat = Tensor.from_numpy(
            np.zeros(weight.numel, dtype=np.uint16), dtype="uint16", device=weight.device
        )
        self.row.layers["distributed.collective.shard_gather_ms"] = self.median_ms(
            "distributed.collective.shard_gather", "index_list",
            lambda: all_gather(shard_rows(flat, group), weight.device),
        )  # fmt: skip
