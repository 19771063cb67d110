"""eDKM core: differentiable weight clustering plus the memory pipeline.

Public surface:

- :class:`DKMConfig` / :class:`EDKMConfig` -- algorithm and memory-pipeline
  configuration (the M/U/S toggles of the paper's Table 2).
- :class:`DKMClusterer` -- differentiable k-means with the dense (original
  DKM) assignment path.
- :func:`edkm_cluster` / :class:`EDKMClusterAssign` -- the memory-efficient
  unique-space assignment (paper Section 2.2).
- :class:`SavedTensorPipeline` -- saved-tensor offloading with cross-device
  marshaling and sharding (paper Section 2.1).
- :class:`ModelCompressor` / :class:`ClusteredLinear` -- model-level
  train-time compression and palettization; ``CompressorConfig.num_workers``
  picks the per-layer engine: the serial loop (1) or
  :class:`ProcessLayerEngine` (>= 2), which pins layers to worker slots by
  weight bytes and ships zero-copy shared-memory weight views plus
  ``O(k)`` deltas to them.
- :class:`FaultPlan` / :class:`FaultInjector` (one injector for the
  compression engine and the server), :class:`RetryPolicy`, and the
  checkpoint layer (:func:`write_checkpoint` / :func:`load_checkpoint`)
  -- the robustness surface: deterministic chaos injection,
  watchdog/retry/quarantine recovery, crash-safe checkpoint/resume, and
  graceful process -> serial degradation (see ``docs/robustness.md``).
"""

from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorrupt,
    CheckpointError,
    load_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.config import (
    CompressorConfig,
    DKMConfig,
    EDKMConfig,
    PipelineStats,
    RetryPolicy,
)
from repro.core.faults import (
    FAULT_KINDS,
    CorruptPayload,
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultPlan,
    FaultSpec,
    PoolExhausted,
    RobustnessWarning,
    TransientWorkerError,
    WatchdogTimeout,
)
from repro.core.compressor import (
    ClusteredLinear,
    CompressionReport,
    LayerClusterResult,
    ModelCompressor,
    SWEEP_OPS,
    dequantized_state,
    palettize_op,
    precluster_op,
    refine_op,
)
from repro.core.procpool import (
    LayerDelta,
    LayerOutcome,
    LayerTask,
    ProcessLayerEngine,
    TransportStats,
    WorkerCacheRegistry,
)
from repro.core.dkm import (
    ClusterState,
    DKMClusterer,
    default_temperature,
    init_centroids_quantile,
)
from repro.core.edkm import EDKMClusterAssign, cluster, edkm_cluster
from repro.core.fastpath import FastPathReport, FastPathStats, StepCache
from repro.core.marshal import MarshalRegistry, OffloadEntry
from repro.core.offload import SavedPayload, SavedTensorPipeline
from repro.core.palettize import (
    PalettizedTensor,
    kmeans_palettize,
    pack_indices,
    unpack_indices,
)
from repro.core.uniquify import (
    HISTOGRAM_MIN_SIZE,
    MAX_UNIQUE_16BIT,
    UniquifiedWeights,
    attention_table,
    dense_attention_map,
    index_dtype_for,
    reconstruct_attention_map,
    reset_uniquify_call_count,
    uniquify,
    uniquify_call_count,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorrupt",
    "CheckpointError",
    "load_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
    "FAULT_KINDS",
    "CorruptPayload",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "PoolExhausted",
    "RobustnessWarning",
    "TransientWorkerError",
    "WatchdogTimeout",
    "CompressorConfig",
    "DKMConfig",
    "EDKMConfig",
    "PipelineStats",
    "RetryPolicy",
    "ClusteredLinear",
    "CompressionReport",
    "LayerClusterResult",
    "ModelCompressor",
    "SWEEP_OPS",
    "dequantized_state",
    "palettize_op",
    "precluster_op",
    "refine_op",
    "LayerDelta",
    "LayerOutcome",
    "LayerTask",
    "ProcessLayerEngine",
    "TransportStats",
    "WorkerCacheRegistry",
    "ClusterState",
    "DKMClusterer",
    "default_temperature",
    "init_centroids_quantile",
    "EDKMClusterAssign",
    "cluster",
    "edkm_cluster",
    "FastPathReport",
    "FastPathStats",
    "StepCache",
    "MarshalRegistry",
    "OffloadEntry",
    "SavedPayload",
    "SavedTensorPipeline",
    "PalettizedTensor",
    "kmeans_palettize",
    "pack_indices",
    "unpack_indices",
    "HISTOGRAM_MIN_SIZE",
    "MAX_UNIQUE_16BIT",
    "UniquifiedWeights",
    "attention_table",
    "dense_attention_map",
    "index_dtype_for",
    "reconstruct_attention_map",
    "reset_uniquify_call_count",
    "uniquify",
    "uniquify_call_count",
]
