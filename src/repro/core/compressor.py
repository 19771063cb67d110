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
        # Eval-path state, each entry ``(key, storage weakref, ...)``: the
        # hard-weight cache, the shared (centroids, assignments) products
        # both eval paths derive from, and the optional palette executor
        # (enable_palette_eval).
        self._hard_cache: tuple | None = None
        self._hard_products_cache: tuple | None = None
        self._palette_opts: tuple | None = None
        self._palette_cache: tuple | None = None
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
        cached hard-palettized weight in eval mode."""
        if self.training:
            clustered = cluster(
                self.inner.weight,
                self.clusterer,
                uniquify_enabled=self.uniquify_enabled,
            )
        else:
            from repro.tensor.autograd import is_grad_enabled

            # Eval mode: hard palettized weights (deployment behavior).
            # Palette execution only applies off the autograd tape -- it
            # returns detached values, so a recorded eval forward (e.g.
            # probing gradients against frozen weights) keeps the dense
            # reconstruction path.
            if self._palette_opts is not None and not is_grad_enabled():
                return self._palette_forward(x)
            clustered = self._hard_weight()
        out = x @ clustered.T
        if self.inner.bias is not None:
            out = out + self.inner.bias
        return out

    def train(self, mode: bool = True) -> "ClusteredLinear":
        """Switch train/eval mode, dropping the hard-weight eval cache.

        Mode changes signal intent to (stop) mutating weights, so the
        cached palettized reconstruction is conservatively dropped even
        though it is also keyed on the weight storage version.
        """
        object.__setattr__(self, "_hard_cache", None)
        super().train(mode)
        return self

    def _weight_version_key(self) -> tuple:
        """The (storage, version, view) key a weight write or a storage
        swap invalidates.

        ``id(storage)`` alone can be reused once a swapped-out storage is
        collected, so every cache holding this key also holds a weakref to
        the storage and checks it with :meth:`_is_current`.
        """
        weight = self.inner.weight
        return (
            id(weight.storage),
            weight.storage.version,
            weight.shape,
            weight.strides,
            weight.offset,
        )

    def _is_current(self, cached: tuple | None) -> bool:
        """Whether ``cached`` -- ``(key, storage weakref, ...)`` -- was
        built from the weight as it is now."""
        return (
            cached is not None
            and cached[0] == self._weight_version_key()
            and cached[1]() is self.inner.weight.storage
        )

    def _hard_products(self) -> tuple[np.ndarray, np.ndarray]:
        """``(centroids, assignments)`` for the current weight version.

        Computed once per version and shared by *both* eval paths:
        ``refine`` warm-starts from mutable clusterer state, so a second
        call against the same bytes can keep converging and yield a
        slightly different palette -- the dense reconstruction and the
        palette executor must consume the same snapshot or their outputs
        diverge beyond summation order.
        """
        from repro.tensor.autograd import no_grad

        weight = self.inner.weight
        cached = self._hard_products_cache
        if self._is_current(cached):
            return cached[2], cached[3]
        with no_grad():
            state = self.clusterer.refine(weight)
            assignments = np.asarray(
                self.clusterer.hard_assign(weight), dtype=np.int64
            )
        centroids = state.centroids.copy()
        self._hard_products_cache = (
            self._weight_version_key(),
            weakref.ref(weight.storage),
            centroids,
            assignments,
        )
        return centroids, assignments

    def _hard_weight(self) -> Tensor:
        weight = self.inner.weight
        cached = getattr(self, "_hard_cache", None)
        # Keyed on Storage.version (the counter every in-place write
        # bumps), not just on mode changes: an optimizer step or
        # weight.copy_ while the module stays in eval mode must not
        # keep serving the stale palettized reconstruction.
        if self._is_current(cached):
            return cached[2]
        centroids, assignments = self._hard_products()
        values = centroids[assignments].reshape(weight.shape)
        hard = Tensor.from_numpy(values, dtype=weight.dtype, device=weight.device)
        object.__setattr__(
            self,
            "_hard_cache",
            (self._weight_version_key(), weakref.ref(weight.storage), hard),
        )
        return hard

    # ------------------------------------------------------------------
    # Palette eval path (serving)
    # ------------------------------------------------------------------

    def enable_palette_eval(
        self,
        name: str,
        cache,
        fault_hook=None,
    ) -> None:
        """Route no-grad eval forwards through the palette executor.

        ``cache`` is the shared
        :class:`~repro.serving.palette.TileCache`; ``name`` keys this
        layer's resident weight in it.  ``fault_hook`` (serving chaos
        harness) is called with the layer name at every palette matmul
        entry.  The executor itself is built lazily on the first palette
        forward and rebuilt whenever the weight's storage or its version
        moves, so enabling is cheap and never serves stale weights.
        """
        self._palette_opts = (name, cache, fault_hook)
        self._palette_cache = None

    def disable_palette_eval(self) -> None:
        """Restore the dense-reconstruction eval path, dropping the
        resident weight."""
        if self.palette_exec is not None:
            self.palette_exec.invalidate()
        self._palette_opts = None
        self._palette_cache = None

    @property
    def palette_exec(self):
        """The live :class:`~repro.serving.palette.PaletteLinearExec`.

        ``None`` until the first palette forward builds it (or when the
        palette path is disabled).
        """
        return None if self._palette_cache is None else self._palette_cache[2]

    def _palette_executor(self):
        """The executor for the current weight storage and version,
        (re)built lazily."""
        from repro.serving.palette import PaletteLinearExec

        if self._is_current(self._palette_cache):
            return self._palette_cache[2]
        if self.palette_exec is not None:
            self.palette_exec.invalidate()
        name, cache, fault_hook = self._palette_opts
        key = self._weight_version_key()
        weight = self.inner.weight
        centroids, assignments = self._hard_products()
        # Project the palette through the weight dtype's grid so palette
        # arithmetic consumes exactly the values the dense reconstruction
        # (Tensor.from_numpy(..., dtype=weight.dtype)) would.
        lut = Tensor.from_numpy(centroids, dtype=weight.dtype)._compute()
        indices = assignments.reshape(weight.shape)
        exec_ = PaletteLinearExec(
            name,
            lut,
            indices,
            cache=cache,
            version_token=key,
            fault_hook=fault_hook,
        )
        self._palette_cache = (key, weakref.ref(weight.storage), exec_)
        return exec_

    def _palette_forward(self, x: Tensor) -> Tensor:
        """Eval forward through the palette executor (host numpy)."""
        exec_ = self._palette_executor()
        weight = self.inner.weight
        x_np = x._compute()
        flat = x_np.reshape(-1, weight.shape[1])
        y = exec_.matmul(flat)
        out_np = y.reshape(*x_np.shape[:-1], weight.shape[0])
        out = Tensor.from_numpy(
            out_np, dtype=promote(x.dtype, weight.dtype), device=x.device
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


def palettize_op(
    clusterer: DKMClusterer, weights: Tensor, bits: int
) -> PalettizedTensor:
    """One layer's refine + hard-assign + LUT packing (``finalize`` body)."""
    state = clusterer.refine(weights)
    assignments = clusterer.hard_assign(weights)
    return PalettizedTensor.from_assignments(
        state.centroids, assignments, bits, tuple(weights.shape)
    )


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
    from wrapping; their Linears stay in 16-bit too.  ``sweeps_completed``
    counts the sweeps run so far (the checkpoint layer's progress marker).
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
        self.sweeps_completed = 0

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
        results = {
            name: SWEEP_OPS[op](wrapper.clusterer, wrapper.inner.weight, **kwargs)
            for name, wrapper in self.wrapped.items()
        }
        self.sweeps_completed += 1
        return results

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def save_checkpoint(self, path: str) -> str:
        """Atomically persist clustering progress to ``path``; return digest.

        Sweep-granular: per-layer cluster states (exact IEEE-754 bytes),
        warm tokens, and step-cache counters, plus the sweep count and a
        config-epoch pin -- everything :meth:`resume` needs to continue
        bit-identically to a run that was never interrupted.  See
        :mod:`repro.core.checkpoint` for the durability contract.
        """
        from repro.core.checkpoint import write_checkpoint

        return write_checkpoint(self, path)

    def resume(self, path: str) -> dict:
        """Restore clustering progress saved by :meth:`save_checkpoint`.

        Verifies the payload digest and the config epoch, then reinstalls
        every layer's state, warm token, and counters; subsequent sweeps
        are bit-identical -- outputs *and* counters -- to the
        uninterrupted run's.  Returns the verified payload for audits.
        """
        from repro.core.checkpoint import load_checkpoint

        return load_checkpoint(self, path)

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
                    module.weight._compute(), self.embedding_bits
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


def dequantized_state(report: CompressionReport) -> dict[str, np.ndarray]:
    """Materialize fp32 weights from a compression report (for evaluation)."""
    return {name: p.dequantize() for name, p in report.palettized.items()}
