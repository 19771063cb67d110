"""Configuration objects for DKM and the eDKM memory pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.uniquify import float32_temperature
from repro.distributed.learner import LearnerGroup
from repro.tensor.dtype import DType, bfloat16, float16


@dataclass
class DKMConfig:
    """Differentiable k-means clustering hyper-parameters.

    Attributes:
        bits: codebook size is ``2**bits`` centroids (paper: 3- and 4-bit).
        temperature: softmax temperature for the weight-centroid attention;
            smaller is harder assignment.  ``None`` (default) picks an
            adaptive per-tensor temperature from the weight spread.
        iters: maximum k-means refinement iterations per forward (the
            loop stops early once no centroid moves by
            :data:`repro.core.dkm.TOL`).
        weight_dtype: 16-bit float dtype weights are clustered in,
            bfloat16 (default; the paper fine-tunes in it) or float16
            (uniquification keys on its bit patterns).
    """

    bits: int = 3
    temperature: float | None = None
    iters: int = 5
    weight_dtype: DType = bfloat16

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 8:
            raise ValueError(f"bits must be in [1, 8], got {self.bits}")
        if self.temperature is not None:
            float32_temperature(self.temperature)  # the attention table's rule
        if self.iters < 1:
            raise ValueError("need at least one k-means iteration")
        if self.weight_dtype not in (bfloat16, float16):
            raise ValueError(
                f"weight_dtype must be bfloat16 or float16, got {self.weight_dtype!r}"
            )

    @property
    def n_clusters(self) -> int:
        """Codebook size ``k = 2**bits``."""
        return 2**self.bits


@dataclass
class EDKMConfig:
    """The eDKM memory pipeline: which of M / U / S are enabled.

    Mirrors the toggles of the paper's Table 2 ablation.  Every saved
    tensor overflows from GPU to CPU (the baseline the paper starts from);
    a run that keeps everything on GPU passes no pipeline at all.

    - ``marshal`` (M): cross-device tensor marshaling -- dedup offloaded
      storages via a hop-limited walk of the forward graph.
    - ``uniquify`` (U): compute the attention *table* over unique 16-bit
      weight values plus an index list, instead of the dense attention map.
    - ``shard`` (S): partition offloaded tensors of at least
      :data:`repro.core.offload.SHARD_MIN_BYTES` row-wise across the
      learner group; reconstruction all-gathers.  The default (``None``)
      resolves to "shard iff a ``group`` was provided", so ``EDKMConfig()``
      is constructible; an *explicit* ``shard=True`` without a group is
      still rejected.

    ``hop_budget`` bounds the marshal registry's forward-graph walk
    (paper Section 2.1).  The walk assumes the step-scoped immutability
    contract: saved storages are not written in place between save and
    reuse, and the registry is cleared between steps because weights
    change.
    """

    marshal: bool = True
    uniquify: bool = True
    shard: bool | None = None
    hop_budget: int = 4
    group: LearnerGroup | None = None

    def __post_init__(self) -> None:
        if self.hop_budget < 0:
            raise ValueError("hop_budget must be >= 0")
        if self.shard is None:
            # Auto mode: sharding needs a learner group, so default to
            # whatever the presence of one implies.
            self.shard = self.group is not None
        elif self.shard and self.group is None:
            raise ValueError("sharding requires a LearnerGroup")

    @classmethod
    def baseline_offload(cls, **kwargs) -> "EDKMConfig":
        """The naive CPU-overflow configuration (first row of Table 2)."""
        return cls(marshal=False, uniquify=False, shard=False, group=None, **kwargs)


@dataclass
class PipelineStats:
    """Counters accumulated by the offload pipeline across a step.

    Besides the copy/shard byte accounting, the registry threads
    per-strategy *probe cost* through here: every ``MarshalRegistry.find``
    records a hit or miss under its strategy name and the graph walk
    counts the frontier nodes it dequeues.  ``copies_made + copies_avoided
    == tensors_packed`` and, per strategy, ``hits + misses == probes`` are
    the reconciliation invariants the strategy-equivalence tests assert.
    """

    tensors_packed: int = 0
    copies_made: int = 0
    bytes_copied: int = 0
    copies_avoided: int = 0
    bytes_avoided: int = 0
    tensors_sharded: int = 0
    bytes_sharded_local: int = 0
    gathers: int = 0
    hops_histogram: dict[int, int] = field(default_factory=dict)
    strategy_hits: dict[str, int] = field(default_factory=dict)
    strategy_misses: dict[str, int] = field(default_factory=dict)
    graph_nodes_visited: int = 0

    def record_hit(self, hops: int, nbytes: int) -> None:
        """Count one avoided host copy found ``hops`` graph hops away."""
        self.copies_avoided += 1
        self.bytes_avoided += nbytes
        self.hops_histogram[hops] = self.hops_histogram.get(hops, 0) + 1

    def record_probe(self, strategy: str, hit: bool) -> None:
        """Per-strategy hit/miss bookkeeping for one ``find`` call."""
        book = self.strategy_hits if hit else self.strategy_misses
        book[strategy] = book.get(strategy, 0) + 1

    def probes(self, strategy: str) -> int:
        """Total ``find`` calls recorded under ``strategy``."""
        return self.strategy_hits.get(strategy, 0) + self.strategy_misses.get(
            strategy, 0
        )
