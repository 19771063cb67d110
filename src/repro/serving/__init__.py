"""Palette-aware inference serving under concurrent traffic.

The deployment half of eDKM: once a model's weights are clustered, this
package serves it -- an admission-controlled request queue
(:mod:`repro.serving.queue`), continuous batching over K/V-cached ragged
decode steps (:mod:`repro.serving.batcher`), palette-aware matmul with a
hot dequantized-tile LRU (:mod:`repro.serving.palette`), and per-request
latency/throughput/byte accounting (:mod:`repro.serving.stats`), all
fronted by :class:`~repro.serving.server.PaletteServer` (or the
top-level ``repro.serve()`` convenience).

The server is chaos-hardened (:mod:`repro.serving.faults`): a supervised
scheduler with a per-step crash boundary and watchdog, a per-layer
palette->dense circuit breaker (:mod:`repro.serving.breaker`), draining
shutdown, and the deterministic fault injector of
:mod:`repro.core.faults` armed via ``ServingConfig.fault_plan``.
"""

from repro.serving.batcher import ContinuousBatcher, SequenceState
from repro.serving.breaker import BreakerBoard, BreakerSnapshot
from repro.serving.config import EVAL_PATHS, ServingConfig
from repro.serving.faults import (
    CorruptTileError,
    PaletteKernelError,
    TransientStepError,
)
from repro.serving.palette import (
    PaletteLayout,
    PaletteLinearExec,
    TileCache,
    TileCacheStats,
    palette_matmul,
)
from repro.serving.queue import (
    AdmissionError,
    DeadlineExceeded,
    RequestQueue,
    ServerClosed,
    ServerRequest,
    ServingError,
    StepFailed,
)
from repro.serving.server import LoopSupervisor, PaletteServer, ServerHealth
from repro.serving.stats import (
    DEGRADE_TAG,
    RequestRecord,
    ServerStats,
    StatsReport,
    percentile,
    request_tag,
)

__all__ = [
    "DEGRADE_TAG",
    "EVAL_PATHS",
    "AdmissionError",
    "BreakerBoard",
    "BreakerSnapshot",
    "ContinuousBatcher",
    "CorruptTileError",
    "DeadlineExceeded",
    "LoopSupervisor",
    "PaletteKernelError",
    "PaletteLayout",
    "PaletteLinearExec",
    "PaletteServer",
    "RequestQueue",
    "RequestRecord",
    "SequenceState",
    "ServerClosed",
    "ServerHealth",
    "ServerRequest",
    "ServerStats",
    "ServingConfig",
    "ServingError",
    "StatsReport",
    "StepFailed",
    "TileCache",
    "TileCacheStats",
    "TransientStepError",
    "palette_matmul",
    "percentile",
    "request_tag",
]
