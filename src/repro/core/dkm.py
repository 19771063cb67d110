"""Differentiable K-Means clustering (DKM, Cho et al., ICLR 2022).

The algorithm the paper makes memory-feasible: each forward pass soft-clusters
the weight tensor against ``k = 2**bits`` centroids through a softmax
attention map, reconstructs the weights as attention-weighted centroid
mixtures, and lets gradients flow through the assignment so the task loss
shapes the clustering.

Two differentiable paths are provided:

- :meth:`DKMClusterer.cluster_dense` -- the original DKM formulation
  composed from primitive autograd ops, one path whether or not it
  records gradients.  Its saved tensors include two ``O(|W|·|C|)``
  buffers (the squared-distance matrix and the attention map), which is
  the memory wall motivating eDKM; a layer whose buffer would exceed
  :data:`DENSE_SAVED_BYTES_LIMIT` is refused up front.
- :func:`repro.core.edkm.edkm_cluster` -- the eDKM path that computes in
  unique-value space and saves the attention *table* + index list instead.

Centroid refinement (the k-means half) always runs in unique-value space
under ``no_grad``; this is mathematically identical to iterating over all
weights (duplicated weights contribute via their multiplicity) and keeps
refinement cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DKMConfig
from repro.core.fastpath import StepCache
from repro.core.uniquify import attention_table, attention_table_ku
from repro.tensor import ops
from repro.tensor.autograd import no_grad
from repro.tensor.tensor import Tensor

# Row-block size for the chunked fallback of the inspection helpers: bounds
# the materialized distance block at chunk x k instead of N x k.
HARD_ASSIGN_CHUNK = 1 << 16

# Largest ``O(|W|·|C|)`` float32 buffer :meth:`DKMClusterer.cluster_dense`
# builds; a bigger layer raises ``MemoryError`` instead of thrashing the host.
DENSE_SAVED_BYTES_LIMIT = 256 << 20


@dataclass
class ClusterState:
    """Mutable per-layer clustering state carried across training steps."""

    centroids: np.ndarray  # (k,) float32
    temperature: float
    iterations_run: int = 0


def init_centroids_quantile(values: np.ndarray, k: int) -> np.ndarray:
    """Deterministic quantile initialization over the weight distribution."""
    quantiles = (np.arange(k, dtype=np.float64) + 0.5) / k
    centroids = np.quantile(values.astype(np.float64), quantiles)
    return np.asarray(centroids, dtype=np.float32)


def init_centroids_histogram(values: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """:func:`init_centroids_quantile` of ``values.repeat(counts)``, bit for bit.

    ``np.quantile``'s linear method interpolates between the sorted
    weights at ``floor((n - 1) * q)`` and the next position.  In the sorted
    repeat, position ``i`` holds the first value-sorted unique value whose
    running count exceeds ``i``, so both neighbours are a ``searchsorted``
    over ``cumsum(counts)``, and numpy's own index, gamma and ``_lerp``
    arithmetic gives the same float64 result without the ``O(N)`` repeat
    and partition.  The one exception is +0.0 and -0.0 both present: which
    zero ``np.partition`` leaves at a position then depends on the input
    order, not only on the multiset, so that input takes the repeat.
    """
    values = np.asarray(values).reshape(-1)
    zero_signs = np.signbit(values[values == 0])
    if zero_signs.any() and not zero_signs.all():
        return init_centroids_quantile(values.repeat(counts), k)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order].astype(np.float64)
    ends = np.cumsum(counts[order])
    last = int(ends[-1]) - 1
    quantiles = (np.arange(k, dtype=np.float64) + 0.5) / k
    virtual = last * quantiles
    previous = np.floor(virtual)
    # Past the last index numpy reads the last weight twice, and measures
    # gamma from index -1.
    at_end = virtual >= last
    gamma = virtual - np.where(at_end, -1.0, previous)
    below = np.where(at_end, last, previous).astype(np.int64)
    above = np.where(at_end, last, previous + 1).astype(np.int64)
    a = sorted_values[np.searchsorted(ends, below, side="right")]
    b = sorted_values[np.searchsorted(ends, above, side="right")]
    diff = b - a
    centroids = a + diff * gamma
    late = gamma >= 0.5
    centroids[late] = (b - diff * (1 - gamma))[late]
    return centroids.astype(np.float32)


def default_temperature(values: np.ndarray, k: int) -> float:
    """Adaptive softmax temperature.

    Scaled so that the squared distance between adjacent centroids is a few
    temperature units: assignments are soft near cluster boundaries and
    near-hard elsewhere, which is the regime DKM trains well in.
    """
    spread = float(values.max() - values.min())
    if spread <= 0:
        return 1e-8
    step = spread / max(k, 1)
    return max((step / 2.0) ** 2, 1e-12)


def nearest_centroid(
    values: np.ndarray, centroids: np.ndarray, chunk: int = HARD_ASSIGN_CHUNK
) -> np.ndarray:
    """Argmin squared distance of each value to the centroid vector.

    Processes ``values`` in blocks of ``chunk`` so the materialized
    distance matrix is bounded at ``chunk x k`` regardless of input size.
    """
    values = np.asarray(values).reshape(-1)
    out = np.empty(values.size, dtype=np.int64)
    for start in range(0, values.size, chunk):
        block = values[start : start + chunk]
        distance = (block[:, None] - centroids[None, :]) ** 2
        out[start : start + block.size] = np.argmin(distance, axis=1)
    return out


class DKMClusterer:
    """Per-tensor DKM state machine: init, refine, differentiable assign."""

    def __init__(self, config: DKMConfig) -> None:
        self.config = config
        self.state: ClusterState | None = None
        # Per-layer fast-path memo: one uniquify per weight version, and the
        # final refine-iteration attention table carried to the forward.
        self.fastpath = StepCache()

    # ------------------------------------------------------------------
    # Centroid refinement (no_grad, unique-value space)
    # ------------------------------------------------------------------

    def refine(self, weights: Tensor, cache_table: bool = False) -> ClusterState:
        """Run up to ``config.iters`` soft k-means updates on ``weights``.

        With ``cache_table=True`` the attention table at the *converged*
        centroids is computed here and parked in the step cache, so a
        following :class:`~repro.core.edkm.EDKMClusterAssign` forward reads
        it instead of rebuilding the identical ``(u, k)`` softmax.  (This
        relocates that table's construction rather than eliminating it --
        the per-step table count is unchanged; it does eliminate the
        recomputation when several forwards share one refine, and the
        step-level speedup comes from the shared uniquify.)

        Each update is one float64 gemm, summed in BLAS's order; its bound
        is in ``docs/edkm-pipeline.md`` ("Refine's update is one gemm").

        Raises :class:`ValueError` for an empty weight and
        :class:`FloatingPointError` for one holding NaN or inf, in both
        cases before the cluster state is created or moved.
        """
        unique = self.fastpath.uniquify(weights, self.config.weight_dtype)
        w_u = unique.values
        if w_u.size == 0:
            raise ValueError("cannot cluster an empty weight")
        n_bad = int(np.count_nonzero(~np.isfinite(w_u)))
        if n_bad:
            # One NaN/inf would turn every centroid and the temperature into
            # NaN and park them in the layer's state for every later step.
            raise FloatingPointError(
                f"cannot cluster a non-finite weight: {n_bad} of {w_u.size} "
                "unique patterns are NaN or inf"
            )

        if self.state is None:
            centroids = init_centroids_histogram(w_u, unique.counts, self.config.n_clusters)
            temperature = (
                self.config.temperature
                if self.config.temperature is not None
                else default_temperature(w_u, self.config.n_clusters)
            )
            self.state = ClusterState(centroids=centroids, temperature=temperature)

        state = self.state
        # Count and count * w_u per pattern: table @ moments is every
        # centroid's denominator and numerator.
        counts = unique.counts.astype(np.float64)
        moments = np.stack([counts, counts * w_u], axis=1)
        for iteration in range(self.config.iters):
            table_ku = attention_table_ku(w_u, state.centroids, state.temperature)
            denom, numer = (table_ku.astype(np.float64) @ moments).T
            new_centroids = np.where(
                denom > 1e-12, numer / np.maximum(denom, 1e-12), state.centroids
            ).astype(np.float32)
            movement = float(np.abs(new_centroids - state.centroids).max())
            state.centroids = new_centroids
            state.iterations_run += 1
            if movement < self.config.tol:
                break
        if cache_table:
            final_table = attention_table(w_u, state.centroids, state.temperature)
            self.fastpath.store_table(state.centroids, state.temperature, final_table)
        return state

    # ------------------------------------------------------------------
    # Differentiable assignment -- dense DKM path
    # ------------------------------------------------------------------

    def cluster_dense(self, weights: Tensor) -> Tensor:
        """Soft-reconstruct ``weights`` through the dense attention map.

        Composed from primitive ops so every intermediate flows through the
        active saved-tensor hooks exactly as the original DKM implementation
        does in PyTorch.  Saved tensors of this path (per weight tensor):
        the squared-distance matrix and the attention map, each
        ``O(|W|·|C|)``, plus small vectors -- the memory wall eDKM removes.
        A forward that records no gradient runs the same composition, so
        its output is byte-equal to a recording one.

        The map is laid out ``(k, |W|)``, so its softmax and the weight
        gradient's sum run down ``k`` rows of ``|W|`` contiguous elements
        and the backward of ``mixed`` is one broadcast outer product.  The
        weight gradient is byte-equal to the ``(|W|, k)`` layout's; the
        forward's ``k``-term gemv may round ``mixed`` differently.

        A layer whose ``O(|W|·|C|)`` float32 buffer would exceed
        :data:`DENSE_SAVED_BYTES_LIMIT` raises :class:`MemoryError` up
        front, before the cluster state is created or moved, instead of
        thrashing the host.
        """
        n_weights = weights.numel
        k = self.config.n_clusters
        dense_bytes = n_weights * k * 4
        if dense_bytes > DENSE_SAVED_BYTES_LIMIT:
            raise MemoryError(
                f"dense DKM would materialize {dense_bytes} bytes per "
                f"O(|W|·|C|) buffer ({n_weights} weights x {k} centroids), "
                f"over the {DENSE_SAVED_BYTES_LIMIT}-byte limit; cluster this "
                "layer on the eDKM path (edkm_cluster) instead"
            )
        with no_grad():
            state = self.refine(weights)
        centroids = Tensor.from_numpy(
            state.centroids, dtype="float32", device=weights.device
        )
        diff = weights.reshape(1, -1) - centroids.reshape(-1, 1)  # (k, |W|)
        sq_dist = diff * diff  # saves `diff` twice (same storage)
        logits = sq_dist * (-1.0 / state.temperature)
        attention = ops.softmax(logits, dim=0)  # the (k, |W|) map
        mixed = centroids.reshape(1, -1) @ attention  # saves `attention` again
        return mixed.reshape(weights.shape).cast(weights.dtype)

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------

    def hard_assign(self, weights: Tensor) -> np.ndarray:
        """Nearest-centroid index per weight as uint8 (no gradient; for palettization).

        ``DKMConfig`` caps bits at 8, so every index fits a byte.  Works in
        unique-value space for 16-bit weights (at most ``2**16`` distance
        rows regardless of layer size, then one uint8 gather by the uint16
        index list) and falls back to a chunked sweep otherwise, so the
        full ``(N, k)`` distance matrix is never materialized.
        """
        if self.state is None:
            raise RuntimeError("cluster state not initialized; call refine() first")
        dtype = weights.dtype
        if dtype.is_floating and dtype.itemsize == 2:
            unique = self.fastpath.uniquify(weights, dtype)
            assign_u = nearest_centroid(unique.values, self.state.centroids)
            return assign_u.astype(np.uint8).take(unique.index_list)
        return nearest_centroid(weights._compute(), self.state.centroids).astype(np.uint8)

    def reconstruction_error(self, weights: Tensor) -> float:
        """Mean squared error of hard-assigned reconstruction."""
        if self.state is None:
            raise RuntimeError("cluster state not initialized; call refine() first")
        centroids = self.state.centroids
        dtype = weights.dtype
        if dtype.is_floating and dtype.itemsize == 2:
            unique = self.fastpath.uniquify(weights, dtype)
            assign_u = nearest_centroid(unique.values, centroids)
            sq = (unique.values - centroids[assign_u]).astype(np.float64) ** 2
            return float((sq * unique.counts).sum() / max(unique.n_weights, 1))
        flat = weights._compute().reshape(-1)
        assign = nearest_centroid(flat, centroids)
        sq = (flat - centroids[assign]).astype(np.float64) ** 2
        return float(sq.sum() / max(flat.size, 1))
