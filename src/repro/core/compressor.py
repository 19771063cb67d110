"""Model-level train-time compression.

``ClusteredLinear`` wraps a Linear so that every forward re-clusters its
weight through DKM/eDKM -- the train-time weight clustering the paper
fine-tunes with.  ``ModelCompressor`` swaps the wrappers into a model,
coordinates the shared :class:`~repro.core.offload.SavedTensorPipeline`,
and finalizes the fine-tuned model into palettized artifacts.

Each ``ClusteredLinear`` owns its weight storage, its
:class:`~repro.core.dkm.DKMClusterer`, and its
:class:`~repro.core.fastpath.StepCache`, so the compressor's no-grad
sweeps (``refine_all`` / ``precluster`` / ``finalize``) are one loop on
the calling thread: the :data:`SWEEP_OPS` function of the sweep, called
on every wrapped layer in insertion order.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import DKMConfig, EDKMConfig
from repro.core.dkm import ClusterState, DKMClusterer
from repro.core.edkm import cluster
from repro.core.fastpath import FastPathReport, FastPathStats, StepCache
from repro.core.palettize import PalettizedTensor, kmeans_palettize
from repro.nn.linear import Embedding, Linear, named_linears
from repro.nn.module import Module
from repro.tensor.autograd import is_grad_enabled, no_grad
from repro.tensor.dtype import promote
from repro.tensor.tensor import Tensor


class ClusteredLinear(Module):
    """A Linear whose weight passes through differentiable clustering.

    The underlying fp weight remains the trainable parameter; the matmul
    consumes its clustered reconstruction, so gradients shape both the
    weights and (through the soft assignment) the clustering.
    """

    def __init__(
        self,
        inner: Linear,
        dkm_config: DKMConfig,
        uniquify_enabled: bool = True,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.dkm_config = dkm_config
        self.uniquify_enabled = uniquify_enabled
        self.clusterer = DKMClusterer(dkm_config)
        # Eval state.  ``_eval`` is the hard clustering of one weight
        # version, ``(key, lut, indices, dense)``: the palette projected to
        # the weight dtype, the uint8 ``(out, in)`` index matrix and the
        # dense reconstruction Tensor (``None`` until a dense eval forward
        # builds it).  ``_route`` is ``(name, cache, fault_hook)`` while a
        # server serves this layer (:meth:`enable_palette_eval`).
        self._eval: tuple | None = None
        self._route: tuple | None = None
        # Weight bytes the served forwards read (the server's ledger charge).
        self.served_bytes = 0
        # Clustering keys on 16-bit patterns: keep the master weight in the
        # configured 16-bit training dtype (paper: bfloat16).
        if inner.weight.dtype is not dkm_config.weight_dtype:
            inner.weight.copy_(inner.weight.numpy())  # re-projects in place
            inner.weight.storage = _reproject_storage(
                inner.weight, dkm_config.weight_dtype
            )
            inner.weight.dtype = dkm_config.weight_dtype

    def forward(self, x: Tensor) -> Tensor:
        """``x @ clustered(W).T + b``: soft clustering while training, the
        hard-clustered weight in eval mode."""
        if self.training:
            clustered = cluster(
                self.inner.weight,
                self.clusterer,
                uniquify_enabled=self.uniquify_enabled,
            )
        else:
            # A served layer answers no-grad forwards from the server's
            # resident weight.  Served outputs are detached, so a recorded
            # eval forward (e.g. probing gradients against frozen weights)
            # keeps the dense Tensor.
            if self._route is not None and not is_grad_enabled():
                return self._served_forward(x)
            clustered = self._hard_weight()
        out = x @ clustered.T
        if self.inner.bias is not None:
            out = out + self.inner.bias
        return out

    def train(self, mode: bool = True) -> "ClusteredLinear":
        """Switch train/eval mode; training drops the dense eval Tensor.

        Training is about to rewrite the weight, so its dense
        reconstruction is released even though the snapshot is also keyed
        on the weight storage version.  The lut and indices stay: they are
        small, and an unchanged weight reuses them.
        """
        if mode:
            self._drop_dense()
        super().train(mode)
        return self

    def _drop_dense(self) -> None:
        if self._eval is not None:
            self._eval = self._eval[:3] + (None,)

    def _snapshot(self) -> tuple:
        """The eval entry for the current weight, built once per version.

        One :func:`hard_cluster`, shared by the dense and the served path,
        and the same products :func:`palettize_op` ships, so an eval-mode
        layer scores the artifact.  The key is the (storage, version,
        view) a weight write or a storage swap moves.  It names the storage
        by weakref, not by ``id``: a swapped-out storage's id can be reused
        by its successor, while a dead weakref equals only itself, so
        neither this entry nor a server cache entry stamped with the key
        can match a later storage.
        """
        weight = self.inner.weight
        key = (
            weakref.ref(weight.storage),
            weight.storage.version,
            weight.shape,
            weight.strides,
            weight.offset,
        )
        entry = self._eval
        if entry is not None and entry[0] == key:
            return entry
        lut, indices = hard_cluster(self.clusterer, weight)
        self._eval = (key, lut, indices, None)
        return self._eval

    def _hard_weight(self) -> Tensor:
        """The dense hard-clustered weight, ``lut[indices]``, as a Tensor."""
        key, lut, indices, dense = self._snapshot()
        if dense is None:
            weight = self.inner.weight
            dense = Tensor.from_numpy(
                lut[indices], dtype=weight.dtype, device=weight.device
            )
            self._eval = (key, lut, indices, dense)
        return dense

    # ------------------------------------------------------------------
    # Served eval path
    # ------------------------------------------------------------------

    def enable_palette_eval(self, name: str, cache, fault_hook=None) -> None:
        """Serve no-grad eval forwards from ``cache``.

        ``cache`` is the server's
        :class:`~repro.serving.palette.TileCache`, which holds this layer's
        resident weight under ``name``; ``fault_hook`` (serving chaos
        harness) is called with ``name`` on every served forward.  The
        dense Tensor is dropped: a served layer holds only its lut and
        indices.  Raises ``RuntimeError`` if another cache already serves
        this layer: two live servers would share its fault hook and byte
        counter, and closing either would un-route the other.
        """
        if self._route is not None and self._route[1] is not cache:
            raise RuntimeError(
                f"layer {name!r} is already served from another cache; "
                "close that server first"
            )
        self._route = (name, cache, fault_hook)
        self._drop_dense()

    def disable_palette_eval(self) -> None:
        """Restore the dense eval path."""
        self._route = None

    def _served_forward(self, x: Tensor) -> Tensor:
        """One verified cache read and one gemm (host numpy).

        A miss (the first call of a weight version, or the first after a
        corrupt entry was dropped) puts ``lut[indices]`` into the cache
        first.  The fault hook runs before the read, so an injected
        :class:`~repro.serving.faults.PaletteKernelError` originates inside
        the layer's call.
        """
        key, lut, indices, _ = self._snapshot()
        name, cache, fault_hook = self._route
        if fault_hook is not None:
            fault_hook(name)
        resident = cache.get(name, key)
        if resident is None:
            resident = lut[indices]
            cache.put(name, key, resident)
            self.served_bytes += lut.nbytes + indices.nbytes
        else:
            self.served_bytes += resident.nbytes
        weight = self.inner.weight
        x_np = x._compute()
        y = np.matmul(x_np.reshape(-1, weight.shape[1]), resident.T)
        out = Tensor.adopt(  # y is this gemm's fresh result
            y.reshape(*x_np.shape[:-1], weight.shape[0]),
            promote(x.dtype, weight.dtype),
            x.device,
        )
        if self.inner.bias is not None:
            out = out + self.inner.bias
        return out

    @property
    def step_cache(self) -> StepCache:
        """This layer's fast-path memo (shared by refine/assign/palettize)."""
        return self.clusterer.fastpath

    def palettize(self) -> PalettizedTensor:
        """Freeze the clustering into a deployable LUT + indices artifact."""
        return palettize_op(self.clusterer, self.inner.weight, self.dkm_config.bits)

    def __repr__(self) -> str:
        return (
            f"ClusteredLinear({self.inner!r}, bits={self.dkm_config.bits}, "
            f"uniquify={self.uniquify_enabled})"
        )


def _reproject_storage(param, dtype):
    from repro.tensor.storage import Storage

    return Storage.from_values(param._compute(), dtype, param.device)


@dataclass
class LayerClusterResult:
    """One layer's converged clustering, as returned by ``precluster``.

    ``centroids`` is a snapshot (copied out of the mutable
    :class:`~repro.core.dkm.ClusterState`), so results stay stable if
    training continues; ``assignments`` is the flat nearest-centroid index
    per weight position.
    """

    centroids: np.ndarray  # (k,) float32 snapshot
    temperature: float
    iterations_run: int
    assignments: np.ndarray  # (|W|,) int64
    reconstruction_error: float | None = None


# ----------------------------------------------------------------------
# Sweep ops
#
# One function per compressor sweep, taking only (clusterer, weights, ...).
# ----------------------------------------------------------------------


def refine_op(clusterer: DKMClusterer, weights: Tensor) -> ClusterState:
    """One layer's centroid refinement (the ``refine_all`` sweep body)."""
    return clusterer.refine(weights)


def precluster_op(
    clusterer: DKMClusterer, weights: Tensor, compute_error: bool = False
) -> LayerClusterResult:
    """One layer's refine + hard-assign snapshot (``precluster`` body)."""
    state = clusterer.refine(weights)
    assignments = clusterer.hard_assign(weights)
    error = clusterer.reconstruction_error(weights) if compute_error else None
    return LayerClusterResult(
        centroids=state.centroids.copy(),
        temperature=state.temperature,
        iterations_run=state.iterations_run,
        assignments=np.asarray(assignments, dtype=np.int64),
        reconstruction_error=error,
    )


def hard_cluster(
    clusterer: DKMClusterer, weights: Tensor
) -> tuple[np.ndarray, np.ndarray]:
    """The hard clustering of ``weights``: ``(lut, indices)``.

    Refines a *copy* of the clusterer state and hard-assigns against it, so
    the trained state is left as it was: ``refine`` warm-starts from that
    state, and refining it in place would make every call converge a little
    further and return a different palette.  ``lut`` is the refined
    centroids projected onto the weight dtype's grid (float32 values), so
    ``lut[indices]`` is exactly the hard weight; ``indices`` is the uint8
    nearest-centroid index per weight, in the weight's shape.
    """
    trained = clusterer.state
    if trained is not None:
        clusterer.state = dataclasses.replace(
            trained, centroids=trained.centroids.copy()
        )
    try:
        with no_grad():
            state = clusterer.refine(weights)
            indices = clusterer.hard_assign(weights).reshape(weights.shape)
    finally:
        clusterer.state = trained
    lut = Tensor.from_numpy(state.centroids, dtype=weights.dtype)._compute()
    return lut, indices


def palettize_op(
    clusterer: DKMClusterer, weights: Tensor, bits: int
) -> PalettizedTensor:
    """One layer's :func:`hard_cluster` packed into LUT + indices
    (``finalize`` body): a pure function of the weight and the trained
    state."""
    lut, indices = hard_cluster(clusterer, weights)
    return PalettizedTensor.from_assignments(lut, indices, bits, tuple(weights.shape))


SWEEP_OPS: dict[str, Callable] = {
    "refine": refine_op,
    "precluster": precluster_op,
    "palettize": palettize_op,
}
"""Sweep-op registry, keyed by the op names ``ModelCompressor`` sweeps run."""


@dataclass
class CompressionReport:
    """Sizes of the palettized model."""

    palettized: dict[str, PalettizedTensor] = field(default_factory=dict)
    uncompressed: dict[str, int] = field(default_factory=dict)  # name -> bytes kept

    @property
    def total_bytes(self) -> int:
        """Palettized bytes plus everything deliberately left at 16-bit."""
        return sum(p.nbytes for p in self.palettized.values()) + sum(
            self.uncompressed.values()
        )

    def summary(self) -> str:
        """A per-tensor size table (bits/weight and bytes), TOTAL last."""
        lines = [f"{'tensor':<40} {'bits/w':>8} {'bytes':>12}"]
        for name, p in sorted(self.palettized.items()):
            lines.append(f"{name:<40} {p.bits_per_weight:>8.2f} {p.nbytes:>12}")
        for name, nbytes in sorted(self.uncompressed.items()):
            lines.append(f"{name:<40} {'16.00':>8} {nbytes:>12}")
        lines.append(f"{'TOTAL':<40} {'':>8} {self.total_bytes:>12}")
        return "\n".join(lines)


class ModelCompressor:
    """Wraps a model's Linears with DKM clustering; finalizes to palettes.

    Embeddings are palettized post-training at ``embedding_bits`` (paper:
    "we also compressed the embedding layers with 8 bits"); norms and biases
    stay in 16-bit.  ``skip_names`` lists module-path prefixes exempted
    from wrapping; their Linears stay in 16-bit too.
    """

    def __init__(
        self,
        dkm_config: DKMConfig,
        edkm_config: EDKMConfig | None = None,
        embedding_bits: int = 8,
        skip_names: tuple[str, ...] = (),
    ) -> None:
        self.dkm_config = dkm_config
        self.edkm_config = edkm_config or EDKMConfig(
            offload=False, marshal=False, uniquify=True, shard=False, group=None
        )
        self.embedding_bits = embedding_bits
        self.skip_names = skip_names
        self.wrapped: dict[str, ClusteredLinear] = {}

    def compress(self, model: Module) -> Module:
        """Replace every target Linear in ``model`` with a ClusteredLinear."""
        for name, parent, attribute, linear in named_linears(model, self.skip_names):
            wrapper = ClusteredLinear(
                linear,
                self.dkm_config,
                uniquify_enabled=self.edkm_config.uniquify,
            )
            setattr(parent, attribute, wrapper)
            self.wrapped[name] = wrapper
        if not self.wrapped:
            raise ValueError("no Linear layers found to compress")
        return model

    def _sweep(self, op: str, **kwargs) -> dict:
        """Run the :data:`SWEEP_OPS` function ``op`` over every layer.

        Each wrapper's own clusterer and weight, in insertion order; the
        results come back keyed by layer name in that order.
        """
        return {
            name: SWEEP_OPS[op](wrapper.clusterer, wrapper.inner.weight, **kwargs)
            for name, wrapper in self.wrapped.items()
        }

    def refine_all(self) -> dict[str, ClusterState]:
        """Converge every layer's centroids, in layer insertion order."""
        return self._sweep("refine")

    def precluster(self, compute_error: bool = False) -> dict[str, LayerClusterResult]:
        """Refine + hard-assign every layer, snapshotting results.

        This is the multi-layer compression sweep the paper runs once per
        checkpoint/deployment: converge centroids, then map each weight to
        its nearest centroid.  Returns per-layer
        :class:`LayerClusterResult` in layer insertion order.
        """
        return self._sweep("precluster", compute_error=compute_error)

    def fastpath_report(self) -> FastPathReport:
        """Aggregate per-layer step-cache hit/miss counters.

        Counters are copied at call time, so the report is a stable
        snapshot (deltas between two reports stay meaningful as training
        continues).
        """
        return FastPathReport(
            per_layer={
                name: wrapper.step_cache.stats.merge(FastPathStats())
                for name, wrapper in self.wrapped.items()
            }
        )

    def release_step_caches(self) -> None:
        """Drop every layer's cached decomposition (frees O(|W|) host bytes
        per layer; the next step simply re-uniquifies)."""
        for wrapper in self.wrapped.values():
            wrapper.step_cache.invalidate()

    def finalize(self, model: Module) -> CompressionReport:
        """Palettize all clustered layers and embeddings; report sizes.

        The per-layer palettization (refine + hard assign + pack) is one
        sweep; embeddings and the byte accounting follow it.
        """
        report = CompressionReport()
        report.palettized.update(self._sweep("palettize", bits=self.dkm_config.bits))
        wrapped_inner = {id(wrapper.inner) for wrapper in self.wrapped.values()}
        for name, module in model.named_modules():
            if isinstance(module, Embedding):
                report.palettized[f"{name}.weight"] = kmeans_palettize(
                    module.weight._compute(),
                    self.embedding_bits,
                    dtype=self.dkm_config.weight_dtype,
                )
            elif isinstance(module, Linear):
                # A Linear exempted by ``skip_names`` ships at 16-bit.
                if id(module) not in wrapped_inner:
                    report.uncompressed[f"{name}.weight"] = 2 * module.weight.numel
                    if module.bias is not None:
                        report.uncompressed[f"{name}.bias"] = 2 * module.bias.numel
            elif not isinstance(module, ClusteredLinear):
                weight = getattr(module, "weight", None)
                if isinstance(weight, Tensor):
                    report.uncompressed[f"{name}.weight"] = 2 * weight.numel
        for name, wrapper in self.wrapped.items():
            if wrapper.inner.bias is not None:
                report.uncompressed[f"{name}.bias"] = 2 * wrapper.inner.bias.numel
        return report
