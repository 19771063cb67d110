"""Palette-aware inference serving under concurrent traffic.

The deployment half of eDKM: once a model's weights are clustered, this
package serves it -- an admission-controlled request queue
(:mod:`repro.serving.queue`), continuous batching over K/V-cached ragged
decode steps (:mod:`repro.serving.batcher`), palettized layers served
from one resident, CRC-32-checked weight each (:mod:`repro.serving.palette`),
and bounded request and byte counters (:mod:`repro.serving.stats`), all
fronted by :class:`~repro.serving.server.PaletteServer` (or the
top-level ``repro.serve()`` convenience).

The server is chaos-hardened: a supervised scheduler with a per-step
crash boundary, one bounded retry path (:class:`RetryPolicy`) and a
watchdog, draining shutdown, and the deterministic fault injector of
:mod:`repro.serving.faults` armed via ``ServingConfig.fault_plan``.
"""

from repro.serving.batcher import ContinuousBatcher, SequenceState
from repro.serving.config import RetryPolicy, ServingConfig
from repro.serving.faults import (
    FAULT_KINDS,
    CorruptTileError,
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultPlan,
    FaultSpec,
    PaletteKernelError,
    RobustnessWarning,
    TransientStepError,
    WatchdogTimeout,
)
from repro.serving.palette import (
    PaletteLayout,
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
from repro.serving.stats import ServerStats, StatsReport, percentile

__all__ = [
    "FAULT_KINDS",
    "AdmissionError",
    "ContinuousBatcher",
    "CorruptTileError",
    "DeadlineExceeded",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "LoopSupervisor",
    "PaletteKernelError",
    "PaletteLayout",
    "PaletteServer",
    "RequestQueue",
    "RetryPolicy",
    "RobustnessWarning",
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
    "WatchdogTimeout",
    "palette_matmul",
    "percentile",
]
