"""Per-layer step caching for the eDKM hot loop.

A training forward through a clustered layer used to uniquify the same
weight tensor twice -- once in :meth:`DKMClusterer.refine` and once in
:class:`~repro.core.edkm.EDKMClusterAssign` -- and to recompute the
attention table the final refine iteration had just produced.  Both
recomputations are pure functions of the weight bytes, so one small memo
keyed on the weight's storage version removes them:

- :meth:`StepCache.uniquify` returns the cached
  :class:`~repro.core.uniquify.UniquifiedWeights` while the weight storage
  has not been written (the version counter is bumped by every in-place
  mutation, i.e. by optimizer steps), and recomputes exactly once per
  layer per training step otherwise.
- :meth:`StepCache.store_table` / :meth:`StepCache.lookup_table` carry the
  final refine-iteration attention table over to the forward assignment,
  which would otherwise rebuild the identical ``(u, k)`` softmax.

Each :class:`~repro.core.dkm.DKMClusterer` owns one cache, so multi-layer
models amortize per layer independently; :class:`repro.core.compressor.
ModelCompressor` aggregates the per-layer hit counters for reporting.

Footprint: between steps the cache retains the layer's
:class:`~repro.core.uniquify.UniquifiedWeights` -- dominated by the
``O(|W|)`` uint16 index list, i.e. roughly the byte size of the bf16
weight itself per layer, on the host and outside the device trackers.
During training this entry is consumed twice per step (refine + forward)
and goes stale at the next optimizer write; call
:meth:`StepCache.invalidate` (or
``ModelCompressor.release_step_caches``) to reclaim the memory when a
model sits idle between phases.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.uniquify import UniquifiedWeights, uniquify
from repro.tensor.dtype import DType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tensor.tensor import Tensor


@dataclass
class FastPathStats:
    """Hit/miss counters for one layer's :class:`StepCache`."""

    uniquify_hits: int = 0
    uniquify_misses: int = 0
    table_hits: int = 0
    table_misses: int = 0

    def merge(self, other: "FastPathStats") -> "FastPathStats":
        """A new counter object holding the element-wise sum."""
        return FastPathStats(
            uniquify_hits=self.uniquify_hits + other.uniquify_hits,
            uniquify_misses=self.uniquify_misses + other.uniquify_misses,
            table_hits=self.table_hits + other.table_hits,
            table_misses=self.table_misses + other.table_misses,
        )

    def diff(self, baseline: "FastPathStats") -> "FastPathStats":
        """The element-wise delta of this snapshot over ``baseline``
        (what a run of sweeps added between two reports)."""
        return FastPathStats(
            uniquify_hits=self.uniquify_hits - baseline.uniquify_hits,
            uniquify_misses=self.uniquify_misses - baseline.uniquify_misses,
            table_hits=self.table_hits - baseline.table_hits,
            table_misses=self.table_misses - baseline.table_misses,
        )

    def __repr__(self) -> str:
        return (
            f"FastPathStats(uniquify {self.uniquify_hits}h/"
            f"{self.uniquify_misses}m, table {self.table_hits}h/"
            f"{self.table_misses}m)"
        )


class StepCache:
    """Single-entry memo of one weight tensor's per-step derived products.

    The cache holds the decomposition of exactly one (storage, version,
    view) key -- a layer's weight only has one live version at a time, so
    anything deeper would never be hit.  Storage identity is validated
    through a weak reference (ids can be recycled after garbage
    collection, exactly the hazard ``MarshalRegistry`` guards against).

    Thread safety: the memo, the derived table, and the hit/miss
    counters are guarded by a per-cache reentrant lock, so calls against
    one cache from two threads sharing a model (the serving scheduler
    and its caller, say) stay consistent: an interleaved miss can at worst
    recompute, it can never corrupt the memo or lose counter increments.
    Distinct layers own distinct caches and never contend.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._storage_ref: weakref.ReferenceType | None = None
        self._key: tuple | None = None
        self._unique: UniquifiedWeights | None = None
        self._table: np.ndarray | None = None
        self._table_centroids: np.ndarray | None = None
        self._table_temperature: float | None = None
        self.stats = FastPathStats()

    # ------------------------------------------------------------------
    # Uniquification memo
    # ------------------------------------------------------------------

    def _weight_key(self, weights: "Tensor", dtype: DType) -> tuple:
        return (
            weights.storage.version,
            dtype.name,
            weights.shape,
            weights.strides,
            weights.offset,
        )

    def _key_matches(self, weights: "Tensor", dtype: DType) -> bool:
        """Whether the live entry covers ``weights``."""
        return (
            self._key == self._weight_key(weights, dtype)
            and self._storage_ref is not None
            and self._storage_ref() is weights.storage
        )

    def uniquify(self, weights: "Tensor", dtype: DType) -> UniquifiedWeights:
        """The decomposition of ``weights``, computed at most once per version."""
        with self._lock:
            if self._key_matches(weights, dtype):
                self.stats.uniquify_hits += 1
                return self._unique
            self.stats.uniquify_misses += 1
            unique = uniquify(weights._np(), dtype)
            # Drop everything derived from the previous decomposition (the
            # cached table is stale), then repopulate.
            self.invalidate()
            self._storage_ref = weakref.ref(weights.storage)
            self._key = self._weight_key(weights, dtype)
            self._unique = unique
            return unique

    # ------------------------------------------------------------------
    # Attention-table carry-over (refine -> forward assignment)
    # ------------------------------------------------------------------

    def store_table(
        self, centroids: np.ndarray, temperature: float, table: np.ndarray
    ) -> None:
        """Remember the table for the *current* decomposition and centroids.

        Accepted against a live entry whose row count matches; otherwise
        the call is ignored.
        """
        with self._lock:
            if self._unique is None or table.shape[0] != self._unique.n_unique:
                return
            self._table = table
            # Flatten at store time: lookup compares against a flattened
            # key, so a column-vector ``(k, 1)`` centroid array stored
            # as-is would never hit and the refine->forward carry-over
            # would be silently dead.
            self._table_centroids = np.array(centroids, dtype=np.float32).reshape(-1)
            self._table_temperature = float(temperature)

    def lookup_table(
        self, centroids: np.ndarray, temperature: float
    ) -> np.ndarray | None:
        """The stored table, iff centroids and temperature match exactly."""
        with self._lock:
            if (
                self._table is not None
                and self._table_temperature == float(temperature)
                and self._table_centroids is not None
                and np.array_equal(
                    self._table_centroids,
                    np.asarray(centroids, dtype=np.float32).reshape(-1),
                )
            ):
                self.stats.table_hits += 1
                return self._table
            self.stats.table_misses += 1
            return None

    def invalidate(self) -> None:
        """Drop all cached products (weights changed out from under us)."""
        with self._lock:
            self._storage_ref = None
            self._key = None
            self._unique = None
            self._table = None
            self._table_centroids = None
            self._table_temperature = None


@dataclass
class FastPathReport:
    """Aggregated per-layer cache statistics (see ``ModelCompressor``)."""

    per_layer: dict[str, FastPathStats] = field(default_factory=dict)

    @property
    def total(self) -> FastPathStats:
        """All layers' counters merged into one."""
        merged = FastPathStats()
        for stats in self.per_layer.values():
            merged = merged.merge(stats)
        return merged

    def summary(self) -> str:
        """A per-layer hit/miss table, TOTAL last."""
        lines = [f"{'layer':<40} {'uniq h/m':>12} {'table h/m':>12}"]
        for name, s in sorted(self.per_layer.items()):
            lines.append(
                f"{name:<40} {f'{s.uniquify_hits}/{s.uniquify_misses}':>12} "
                f"{f'{s.table_hits}/{s.table_misses}':>12}"
            )
        t = self.total
        lines.append(
            f"{'TOTAL':<40} {f'{t.uniquify_hits}/{t.uniquify_misses}':>12} "
            f"{f'{t.table_hits}/{t.table_misses}':>12}"
        )
        return "\n".join(lines)
