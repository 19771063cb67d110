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
  train-time compression and palettization; every per-layer sweep is one
  loop over the wrapped layers.
- the checkpoint layer (:func:`write_checkpoint` / :func:`load_checkpoint`,
  crash-safe resume of the fine-tune that ``train_causal_lm(checkpoint=)``
  drives); see ``docs/robustness.md``.
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
    DKMConfig,
    EDKMConfig,
    PipelineStats,
)
from repro.core.compressor import (
    ClusteredLinear,
    CompressionReport,
    LayerClusterResult,
    ModelCompressor,
    SWEEP_OPS,
    palettize_op,
    precluster_op,
    refine_op,
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
    uniquify_call_count,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorrupt",
    "CheckpointError",
    "load_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
    "DKMConfig",
    "EDKMConfig",
    "PipelineStats",
    "ClusteredLinear",
    "CompressionReport",
    "LayerClusterResult",
    "ModelCompressor",
    "SWEEP_OPS",
    "palettize_op",
    "precluster_op",
    "refine_op",
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
    "uniquify_call_count",
]
