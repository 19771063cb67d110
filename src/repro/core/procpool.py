"""Process engine for the per-layer compression sweeps.

``ModelCompressor`` runs a sweep here whenever
``CompressorConfig.resolve_workers`` of its layer count is 2 or more (1
is the serial loop on the calling thread).  This module fans the no-grad
sweeps (``refine`` / ``precluster`` / ``palettize``) out over process
workers, which overlaps numpy kernels and Python-side op dispatch alike,
and keeps each layer's heavy derived state *resident in its worker*
across sweeps.

There is one scheduling mode.  ``CompressorConfig.resolve_workers`` fixes
the number of worker *slots* (each a spawned single-worker process
standing in for one host -- a "node" owning one learner memory domain)
and :func:`place_layers` pins every layer to one slot by weight bytes
(greedy largest-first).  Width and layer set are fixed for a *generation*
of the engine: a sweep that arrives with a different slot count or layer
set restarts cold through the same :meth:`ProcessLayerEngine.reset` every
sweep error takes.  A layer's tasks therefore always land in the same
process, where a :class:`WorkerCacheRegistry` keeps its
:class:`WorkerStepCache` -- its :class:`~repro.core.dkm.DKMClusterer`
(step cache, uniquify products, carried attention table) plus a
long-lived shared-memory lease -- alive between sweeps.  The first
shipment of a layer is a full :class:`LayerTask` (handle + config +
state); once synced, the parent ships an ``O(k)`` :class:`LayerDelta`
(storage version, cluster state, config epoch, warm token) and warm
sweeps skip the worker-side re-uniquify entirely.  Workers ship back
outcomes plus :class:`~repro.core.fastpath.FastPathStats` counter
*deltas* that the parent folds into its phantom-entry accounting, so
hit/miss counters stay bit-identical to the serial sweep.  Every parent
<-> slot transfer is recorded in the global
:class:`~repro.memory.traffic.TrafficLedger` under ``shard:ship`` and
``shard:gather`` tags.

Three design rules keep the engine bit-identical to the serial sweep:

- **Shared-memory weights.**  Each layer's weight storage is exported
  once into a ``multiprocessing.shared_memory`` block (the only byte
  copy); workers rebuild a zero-copy strided view from a tiny picklable
  :class:`~repro.tensor.serialization.ShmTensorHandle`.  Exports are
  keyed on (storage identity, version), so an optimizer step in the
  parent invalidates and re-exports exactly the layers it wrote -- and
  demotes exactly those layers back to full shipping.
- **Deterministic merge.**  Outcomes are collected in slot order and
  returned in layer insertion order; per-layer clustering is a pure
  function of (weight bytes, prior state, config), so centroids,
  assignments, carried attention tables, and counter deltas merge back
  bit-identical to the serial sweep no matter how the slots interleave.
- **Invalidation protocol.**  The parent tracks per-layer sync records
  (block name, storage version, config epoch) and only ships a delta
  when every field still matches; workers defensively re-validate and
  raise :class:`StaleWorkerCache` on any mismatch, which -- like a
  worker crash (``BrokenExecutor``) -- makes the parent re-ship the
  slot's layers as full tasks (respawning the worker first if it died).
  That check is the whole residency rule.
  Every transport decision is observable through the engine's
  :class:`TransportStats`.

Worker lifecycle: slots are spawn-safe (workers receive only picklable
task specs and import the codebase fresh under the default ``"spawn"``
context), created on a generation's first sweep, reused across its
sweeps, and torn down -- together with every exported block -- by
:meth:`ProcessLayerEngine.close`, by :meth:`ProcessLayerEngine.reset` on
any sweep error or generation change, or by a
``weakref.finalize`` safety net if the engine is garbage collected
first.  A reset also drops every sync record, so the sweep after an
error re-exports and re-ships everything instead of trusting stale
``(storage, version)`` keys.  Cleanup is verifiable:
:meth:`ProcessLayerEngine.active_shm_names` lists the live blocks, and
attaching to any of them after ``close()`` raises ``FileNotFoundError``.
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import struct
import threading
import time
import warnings
import weakref
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
    wait as futures_wait,
)
from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.core.config import CompressorConfig, DKMConfig
from repro.core.dkm import ClusterState, DKMClusterer
from repro.core.fastpath import FastPathStats
from repro.core.faults import (
    FAULT_KINDS,
    CorruptPayload,
    FaultDirective,
    FaultInjector,
    FaultLog,
    PoolExhausted,
    RobustnessWarning,
    TransientWorkerError,
    apply_directive,
    corrupted_state,
)
from repro.distributed.collective import logical_nbytes
from repro.distributed.learner import LearnerGroup
from repro.memory.traffic import global_ledger
from repro.tensor.serialization import (
    ShmExport,
    ShmLease,
    ShmLeaseRegistry,
    ShmLost,
    ShmTensorHandle,
    export_tensor_shm,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tensor.tensor import Tensor

_WORKER_FAULTS = tuple(
    kind for kind, (_, scope, _) in FAULT_KINDS.items() if scope == "worker"
)
"""Fault kinds a worker executes from a shipped :class:`FaultDirective`."""


class StaleWorkerCache(RuntimeError):
    """A delta task reached a worker whose resident cache cannot apply it.

    Raised worker-side when a :class:`LayerDelta` names a layer the
    worker does not hold, or holds at a different config epoch / storage
    version (e.g. after a respawn the parent has not noticed).  The
    parent reacts by re-shipping the slot's layers as full tasks --
    correctness never depends on the parent's sync records being right,
    they are purely a bytes optimization.
    """


@dataclass
class LayerTask:
    """One layer's worth of *full* work shipped to a pool worker.

    Everything here pickles small: the shm handle is O(metadata), the
    cluster state is ``O(k)`` floats, and ``warm`` is the one-bit token
    telling the worker its first uniquify is logically a cache hit (the
    parent's step cache already covers these exact weight bytes), so the
    merged hit/miss counters match the serial sweep exactly.  ``epoch``
    tags the (handle, config) generation this task installs; later
    :class:`LayerDelta` shipments must quote it back.
    """

    name: str
    handle: ShmTensorHandle
    dkm_config: DKMConfig
    state: ClusterState | None
    warm: bool
    epoch: int = 0
    fault: FaultDirective | None = None


@dataclass
class LayerDelta:
    """The ``O(k)`` per-sweep shipment for a layer already resident.

    Replaces a full :class:`LayerTask` once the worker holds the layer: no shm handle (the worker's pinned lease is
    still valid -- ``version`` proves the storage was not rewritten), no
    config (``epoch`` proves the resident one is current), just the
    mutable cluster state the parent may have advanced between sweeps
    plus the warm token.  Strictly fewer pickled bytes than the full
    task it stands in for.  ``digest`` is a blake2b integrity tag over
    the payload (see :func:`delta_digest`); the worker refuses to apply
    a delta whose content no longer matches it
    (:class:`~repro.core.faults.CorruptPayload`), making wire corruption
    a recoverable re-ship instead of silent state divergence.
    """

    name: str
    version: int
    epoch: int
    state: ClusterState | None
    warm: bool
    digest: str | None = None
    fault: FaultDirective | None = None


def delta_digest(
    name: str,
    version: int,
    epoch: int,
    warm: bool,
    state: "ClusterState | None",
) -> str:
    """Blake2b integrity tag over a :class:`LayerDelta`'s payload.

    Computed parent-side at build time and re-computed worker-side before
    the delta is applied; covers every field that influences the worker's
    resulting state (identity, version, epoch, warm token, and the exact
    centroid/temperature/iteration bytes).  Cheap -- ``O(k)`` bytes per
    layer per sweep -- and deterministic across processes.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(f"{name}|{version}|{epoch}|{int(warm)}".encode("utf-8"))
    if state is not None:
        hasher.update(
            np.ascontiguousarray(state.centroids, dtype=np.float32).tobytes()
        )
        hasher.update(struct.pack("<d", float(state.temperature)))
        hasher.update(struct.pack("<q", int(state.iterations_run)))
    return hasher.hexdigest()


@dataclass
class LayerOutcome:
    """What a worker sends home for one layer.

    ``result`` is the op's return value (a ``ClusterState`` snapshot, a
    ``LayerClusterResult``, or a ``PalettizedTensor``); ``state`` is the
    worker clusterer's final state, assigned back onto the parent layer;
    ``stats`` holds the worker cache's counter deltas for exactly this
    task; ``table`` carries the refine->forward attention table
    (``(centroids, temperature, table)``), or ``None`` when the worker
    already shipped the identical table object (the parent keeps its
    parked copy).
    """

    name: str
    result: Any
    state: ClusterState | None
    stats: FastPathStats
    table: "tuple[np.ndarray, float, np.ndarray] | None"


@dataclass
class TransportStats:
    """Parent-side accounting of what the engine ships per sweep.

    ``bytes_shipped`` counts the pickled task payloads of every batch
    that reached a slot (outcome payloads are ledgered separately under
    ``shard:gather``).  The ``last_sweep_*`` fields reset at every
    :meth:`begin_sweep`, so a warm all-delta sweep can be compared
    against the cold full-task sweep directly.  The byte count is
    measured once per batch by the engine (``_submit_slot``) and shared
    with the ``shard:ship`` ledger record, so the two always reconcile;
    task payloads are deliberately tiny (O(metadata) handles, ``O(k)``
    states and deltas -- never weight bytes), so the measurement costs
    microseconds per sweep and buys an always-on, assertable transport
    number.
    """

    sweeps: int = 0
    tasks_shipped: int = 0
    full_tasks: int = 0
    delta_tasks: int = 0
    bytes_shipped: int = 0
    last_sweep_bytes: int = 0
    last_sweep_full_tasks: int = 0
    last_sweep_delta_tasks: int = 0

    def begin_sweep(self) -> None:
        """Open a new per-sweep accounting window."""
        self.sweeps += 1
        self.last_sweep_bytes = 0
        self.last_sweep_full_tasks = 0
        self.last_sweep_delta_tasks = 0

    def record_batch(self, tasks: "list[LayerTask | LayerDelta]", nbytes: int) -> None:
        """Charge one submitted batch (``nbytes`` pickled + task-kind counts)."""
        full = sum(1 for task in tasks if isinstance(task, LayerTask))
        delta = len(tasks) - full
        self.tasks_shipped += len(tasks)
        self.full_tasks += full
        self.delta_tasks += delta
        self.bytes_shipped += nbytes
        self.last_sweep_bytes += nbytes
        self.last_sweep_full_tasks += full
        self.last_sweep_delta_tasks += delta


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


@dataclass
class WorkerStepCache:
    """One pinned layer's worker-resident state.

    The clusterer owns the layer's :class:`~repro.core.fastpath.
    StepCache` (uniquify products, carried attention table, counters);
    the lease keeps the layer's shared-memory weight view mapped between
    sweeps.  ``epoch`` is the (handle, config) generation the entry was
    installed at -- a delta quoting a different epoch is stale.
    ``shipped_table`` remembers the exact table object last sent home so
    unchanged tables are not re-pickled every sweep.
    """

    clusterer: DKMClusterer
    lease: ShmLease
    handle: ShmTensorHandle
    epoch: int
    shipped_table: "np.ndarray | None" = None


class WorkerCacheRegistry:
    """Per-worker registry of resident layer caches.

    Lives as a process-global in each pool worker (one registry per
    worker process); the parent never touches it.  ``run`` executes one
    task -- installing or resuming the layer's :class:`WorkerStepCache`
    -- and returns the outcome with *delta* counters, snapshotting the
    resident cache's stats around the op so cumulative worker-local
    counters never double-count in the parent's merge.
    """

    def __init__(self) -> None:
        # Workers are single-threaded today, but the registry is also
        # driven in-process by tests and the in-line fallback path;
        # reentrant so locked public methods may call each other.
        self._lock = threading.RLock()
        self._entries: dict[str, WorkerStepCache] = {}
        self._leases = ShmLeaseRegistry()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def run(self, fn, task: "LayerTask | LayerDelta", kwargs: dict) -> LayerOutcome:
        """Execute one sweep op against the (installed or resident) layer."""
        with self._lock:
            apply_directive(task.fault)
            if isinstance(task, LayerDelta):
                entry = self._resume(task)
            else:
                entry = self._install(task)
            clusterer = entry.clusterer
            tensor = entry.lease.tensor
            assert tensor is not None  # the registry never holds closed leases
            before = clusterer.fastpath.stats.merge(FastPathStats())
            result = fn(clusterer, tensor, **kwargs)
            stats = clusterer.fastpath.stats.diff(before)
            peeked = clusterer.fastpath.peek_table()
            table = None
            if peeked is not None and peeked[2] is not entry.shipped_table:
                table = peeked
                entry.shipped_table = peeked[2]
            return LayerOutcome(
                name=task.name,
                result=result,
                state=clusterer.state,
                stats=stats,
                table=table,
            )

    def _install(self, task: LayerTask) -> WorkerStepCache:
        """(Re)build the layer's entry from a full task.

        A full task means the parent trusts nothing this worker holds for
        the layer, so the block is re-attached rather than served from a
        held mapping: a block unlinked under us surfaces here as
        :class:`~repro.tensor.serialization.ShmLost`.
        """
        self._leases.release(task.name)
        lease = self._leases.acquire(task.name, task.handle)
        clusterer = DKMClusterer(task.dkm_config)
        clusterer.state = task.state
        if task.warm:
            clusterer.fastpath.mark_computed(
                lease.tensor, task.dkm_config.weight_dtype
            )
        entry = WorkerStepCache(
            clusterer=clusterer, lease=lease, handle=task.handle, epoch=task.epoch
        )
        self._entries[task.name] = entry
        return entry

    def _resume(self, task: LayerDelta) -> WorkerStepCache:
        """Validate and refresh the resident entry a delta addresses."""
        if task.digest is not None and task.digest != delta_digest(
            task.name, task.version, task.epoch, task.warm, task.state
        ):
            raise CorruptPayload(task.name)
        entry = self._entries.get(task.name)
        if entry is None:
            raise StaleWorkerCache(f"layer {task.name!r} not resident in worker")
        if entry.epoch != task.epoch:
            raise StaleWorkerCache(
                f"layer {task.name!r}: resident epoch {entry.epoch} != "
                f"delta epoch {task.epoch}"
            )
        if entry.handle.version != task.version:
            raise StaleWorkerCache(
                f"layer {task.name!r}: resident storage version "
                f"{entry.handle.version} != delta version {task.version}"
            )
        clusterer = entry.clusterer
        clusterer.state = task.state
        if task.warm:
            clusterer.fastpath.mark_computed(
                entry.lease.tensor, clusterer.config.weight_dtype
            )
        else:
            # The parent dropped its entry (release_step_caches or an
            # explicit invalidate): mirror the serial miss-and-recompute.
            clusterer.fastpath.invalidate()
        return entry

    def close(self) -> None:
        """Drop every entry and release every pinned lease."""
        with self._lock:
            self._entries.clear()
            self._leases.close_all()


_WORKER_REGISTRY: WorkerCacheRegistry | None = None


def _worker_cache_registry() -> WorkerCacheRegistry:
    """The process-global registry (created on a worker's first batch).

    Registered with ``atexit`` so a worker drains its pinned leases (the
    numpy views over shared pages) before the interpreter tears the
    mappings down -- otherwise ``SharedMemory.__del__`` trips over the
    still-exported buffers and warns at every pool shutdown.
    """
    global _WORKER_REGISTRY
    if _WORKER_REGISTRY is None:
        _WORKER_REGISTRY = WorkerCacheRegistry()
        atexit.register(_WORKER_REGISTRY.close)
    return _WORKER_REGISTRY


def _run_slot_batch(
    op: str, kwargs: dict, tasks: "list[LayerTask | LayerDelta]"
) -> list[LayerOutcome]:
    """The worker entry point: run one slot's batch, in order.

    Top-level (picklable by reference) so the spawn context resolves it
    by import; the op table is imported lazily to keep the compressor ->
    procpool import edge one-directional at module load time.
    """
    from repro.core.compressor import SWEEP_OPS

    fn = SWEEP_OPS[op]
    registry = _worker_cache_registry()
    return [registry.run(fn, task, kwargs) for task in tasks]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class _SyncRecord:
    """What the parent believes the layer's slot worker holds for it."""

    shm_name: str
    version: int
    epoch: int
    config: DKMConfig  # snapshot copy; detects in-place config edits


def place_layers(sized: "Iterable[tuple[str, int]]", n_slots: int) -> dict[str, int]:
    """Pin ``(name, nbytes)`` layers to ``n_slots`` slots; ``{name: slot}``.

    Greedy largest-first onto the least-loaded slot, balancing *bytes*
    rather than counts (one embedding outweighs dozens of projections):
    ``max load <= mean load + largest layer``, because when the last
    layer lands on the eventual-max slot that slot held at most the
    mean.  A pure function of its input -- ties break on the lexically
    smaller name and the lower slot, never on hashing order -- so every
    engine pins the same model the same way.
    """
    pins: dict[str, int] = {}
    loads = [0] * n_slots
    for name, nbytes in sorted(sized, key=lambda item: (-item[1], item[0])):
        slot = min(range(n_slots), key=lambda i: (loads[i], i))
        pins[name] = slot
        loads[slot] += nbytes
    return pins


def _pickled_size(payload: Any) -> int:
    """Bytes ``payload`` occupies on the parent <-> worker wire."""
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


_TEARDOWN_DRAIN_S = 5.0
"""How long teardown waits for in-flight batches before hard-killing."""


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Hard-kill every worker process of ``pool`` (hung-worker path).

    ``shutdown(cancel_futures=True)`` cannot stop a task that is already
    executing; a worker wedged in a hung op only goes away via SIGKILL.
    Best-effort by design: processes may already be gone.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.kill()
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=_TEARDOWN_DRAIN_S)
        except Exception:
            pass


def _teardown(state: dict) -> None:
    """Drain in-flight work, shut pools down, unlink exports.  Idempotent.

    Module-level so ``weakref.finalize`` can run it after the engine is
    gone; ``state`` is the engine's mutable holder, shared by reference.

    Ordering matters: unlinking a block while a worker still maps it is
    fine (POSIX keeps the pages alive), but unlinking while a *pending*
    task could still try to attach would turn shutdown into a worker
    crash.  So teardown first cancels what it can, briefly drains what is
    already running, hard-kills anything still wedged past the drain
    window, and only then unlinks.  Every export close is individually
    guarded: one failing unlink (already-reaped block, EPERM) must not
    leak the remaining blocks or leave the pools running -- teardown
    completes under double faults and is safe to call repeatedly.
    """
    inflight = list(state.get("inflight") or ())
    state["inflight"] = []
    for future in inflight:
        future.cancel()
    pending = [f for f in inflight if not f.cancelled() and not f.done()]
    hung = False
    if pending:
        _, not_done = futures_wait(pending, timeout=_TEARDOWN_DRAIN_S)
        hung = bool(not_done)
    pools = list(state.get("slots", []))
    state["slots"] = []
    for pool in pools:
        if hung:
            _kill_pool_processes(pool)
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
    exports = state["exports"]
    for export in list(exports.values()):
        try:
            export.close()
        except Exception:
            # Best-effort: one failing unlink must not leak the rest (and
            # the serialization atexit backstop still covers this block).
            pass
    exports.clear()
    state["export_refs"].clear()


class ProcessLayerEngine:
    """Worker lifecycle, shared memory and layer placement of the engine.

    One engine serves one :class:`~repro.core.compressor.ModelCompressor`.
    The slot count is ``config.resolve_workers`` of the layer count;
    together with the ``(name, bytes)`` layer set it defines the engine's
    *generation*, and a sweep that disagrees with the live generation
    restarts cold (:meth:`reset`, then fresh slots and a fresh
    :func:`place_layers` pinning).  Weight exports are cached per layer
    and refreshed only when the layer's storage identity or version
    changes (i.e. after an optimizer write), which simultaneously
    demotes the layer from delta to full shipping.  Any
    error escaping a sweep triggers :meth:`reset`, which tears down the
    slots, unlinks every block, and forgets every sync record before
    re-raising -- a crashed sweep never leaks ``/dev/shm`` segments and
    never trusts stale ``(storage, version)`` keys, and the next sweep
    transparently rebuilds all three.
    """

    def __init__(self, config: CompressorConfig) -> None:
        self.config = config
        # Mutable holder shared with the GC finalizer: "slots" are the
        # single-worker executors (one per node), "exports" maps layer
        # name -> ShmExport, "export_refs" maps layer name -> weakref to
        # the exported Storage (identity validation; ids can be recycled
        # after garbage collection).
        self._state: dict = {
            "slots": [],
            "exports": {},
            "export_refs": {},
            "inflight": [],
        }
        self.transport = TransportStats()
        self.faults = FaultInjector.from_plan(config.fault_plan)
        # The live generation: (slot count, ((name, nbytes), ...)) and the
        # pinning derived from it; None / empty before the first sweep and
        # after a reset.
        self._shape: tuple | None = None
        self._pins: dict[str, int] = {}
        # Ledger endpoints: the parent is group.primary, slot i owns the
        # learner domain group.devices[i + 1] ("<host>:peer{i+1}"); grown
        # on demand by _ledger.
        self._group = LearnerGroup(1)
        self._sync: dict[str, _SyncRecord] = {}
        self._epochs: dict[str, int] = {}
        self._sweep_index = 0
        self._respawns = 0
        self._layer_failures: dict[str, int] = {}
        self._quarantined: set[str] = set()
        self._finalizer = weakref.finalize(self, _teardown, self._state)

    # -- lifecycle ------------------------------------------------------

    def _new_slot(self) -> ProcessPoolExecutor:
        # One worker per slot, always the "spawn" start method: workers
        # import the codebase fresh and receive only picklable task specs,
        # whatever threads the parent holds.
        return ProcessPoolExecutor(1, get_context("spawn"))

    def _ensure_generation(self, layers) -> None:
        """Restart cold unless the sweep matches the live generation."""
        n_slots = self.config.resolve_workers(len(layers))
        sized = tuple((name, logical_nbytes(weights)) for name, _, weights in layers)
        if self._shape == (n_slots, sized):
            return
        self.reset()
        self._shape = (n_slots, sized)
        self._pins = place_layers(sized, n_slots)
        self._state["slots"] = [self._new_slot() for _ in range(n_slots)]

    def _respawn_slot(self, slot: int, kill: bool = False) -> None:
        """Replace one dead or hung slot worker; its layers re-ship full.

        ``kill=True`` is the watchdog path: the worker is wedged in a
        hung task, so its processes are SIGKILLed before the executor is
        shut down (``cancel_futures`` alone cannot stop a running task).
        Every respawn draws on ``config.retry.respawns``; past the
        budget :class:`~repro.core.faults.PoolExhausted` is raised so the
        compressor degrades to the serial loop instead of respawning forever.
        """
        slots = self._state["slots"]
        if kill:
            _kill_pool_processes(slots[slot])
        slots[slot].shutdown(wait=False, cancel_futures=True)
        for name, pinned in self._pins.items():
            if pinned == slot:
                self._sync.pop(name, None)
        self._respawns += 1
        if self._respawns > self.config.retry.respawns:
            raise PoolExhausted(
                f"worker respawn budget exhausted ({self._respawns - 1} respawns"
                f" > retry.respawns={self.config.retry.respawns})"
            )
        slots[slot] = self._new_slot()

    def reset(self) -> None:
        """Tear down pools, exports, and sync records; engine stays usable.

        Idempotent, including under double faults: in-flight batches are
        drained or hard-killed before any block is unlinked, and a
        failing unlink never aborts the rest of the cleanup (see
        :func:`_teardown`).  Quarantine membership and per-layer failure
        counts survive a reset on purpose -- a poison layer stays
        quarantined across the error/rebuild cycle it caused.
        """
        _teardown(self._state)
        self._sync.clear()
        self._shape = None
        self._pins = {}

    def close(self) -> None:
        """Tear down pools, exports, and sync records (idempotent)."""
        self.reset()

    def __enter__(self) -> "ProcessLayerEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def active_shm_names(self) -> list[str]:
        """Names of currently-linked shared-memory blocks (for audits)."""
        return [export.name for export in self._state["exports"].values()]

    def placement(self) -> dict[str, int]:
        """The live ``{layer: slot}`` pinning (empty before the first sweep)."""
        return dict(self._pins)

    @property
    def fault_log(self) -> "FaultLog | None":
        """The injector's event log (``None`` on a fault-free engine)."""
        return None if self.faults is None else self.faults.log

    @property
    def respawns(self) -> int:
        """Worker respawns performed so far (crash + watchdog paths)."""
        return self._respawns

    @property
    def quarantined(self) -> frozenset[str]:
        """Layers demoted to in-parent serial execution for this run."""
        return frozenset(self._quarantined)

    # -- weight export cache --------------------------------------------

    def _export_weight(self, name: str, weights: "Tensor") -> ShmTensorHandle:
        """The layer's current export, refreshed if its storage changed."""
        exports: dict[str, ShmExport] = self._state["exports"]
        refs: dict[str, weakref.ReferenceType] = self._state["export_refs"]
        existing = exports.get(name)
        if existing is not None:
            ref = refs.get(name)
            same_storage = ref is not None and ref() is weights.storage
            handle = existing.handle
            if (
                same_storage
                and handle.version == weights.storage.version
                and handle.shape == tuple(weights.shape)
                and handle.strides == tuple(weights.strides)
                and handle.offset == int(weights.offset)
            ):
                return handle
            existing.close()
            del exports[name]
            refs.pop(name, None)
        export = export_tensor_shm(weights)
        exports[name] = export
        refs[name] = weakref.ref(weights.storage)
        return export.handle

    # -- sweep dispatch -------------------------------------------------

    def map_layers(
        self,
        op: str,
        layers: "list[tuple[str, DKMClusterer, Tensor]]",
        **kwargs,
    ) -> dict[str, LayerOutcome]:
        """Run ``op`` on every layer through the pool; insertion-order dict.

        ``layers`` is ``(name, clusterer, weight)`` per layer.  The
        clusterer is only read on the parent side (state snapshot + warm
        token); the worker builds or resumes its own from the shipped
        task.  Failures the engine *can* absorb -- crashes, hangs
        past ``retry.timeout_s``, stale caches, corrupt deltas, lost shm
        blocks, transient worker errors -- are retried per slot up to
        ``retry.retries`` times and then executed in-parent (see
        :meth:`_collect_slot`); on any failure beyond that taxonomy (a
        real op bug, the respawn budget running out) the engine is
        :meth:`reset` before the error propagates, so a failed sweep
        never merges partial results and never leaks ``/dev/shm``.
        """
        self._sweep_index += 1
        if self.faults is not None:
            self.faults.begin(
                self._sweep_index, [name for name, _, _ in layers], op
            )
        try:
            outcomes = self._map_slots(op, layers, kwargs)
        except BaseException:
            self.reset()
            raise
        self._state["inflight"] = []
        return {outcome.name: outcome for outcome in outcomes}

    def _deadline(self, n_tasks: int) -> float | None:
        """The watchdog deadline for an ``n_tasks`` batch (``None`` = off)."""
        timeout = self.config.retry.timeout_s
        return None if timeout is None else timeout * max(1, n_tasks)

    # -- task building --------------------------------------------------

    def _next_epoch(self, name: str) -> int:
        epoch = self._epochs.get(name, 0) + 1
        self._epochs[name] = epoch
        return epoch

    def _full_task(
        self,
        name: str,
        clusterer: DKMClusterer,
        weights: "Tensor",
        handle: ShmTensorHandle,
    ) -> LayerTask:
        """A full shipment, optimistically recorded as synced.

        Recording before the sweep completes is safe: every failure path
        that could leave the worker out of step either re-ships full
        (slot retry) or ends in :meth:`reset`, which forgets the record.
        """
        epoch = self._next_epoch(name)
        self._sync[name] = _SyncRecord(
            shm_name=handle.shm_name,
            version=handle.version,
            epoch=epoch,
            config=replace(clusterer.config),
        )
        return LayerTask(
            name=name,
            handle=handle,
            dkm_config=clusterer.config,
            state=clusterer.state,
            warm=clusterer.fastpath.is_warm(weights, clusterer.config.weight_dtype),
            epoch=epoch,
        )

    def _build_task(
        self,
        name: str,
        clusterer: DKMClusterer,
        weights: "Tensor",
        handle: ShmTensorHandle,
    ) -> "LayerTask | LayerDelta":
        """Delta when the sync record still matches reality, else full."""
        rec = self._sync.get(name)
        if (
            rec is not None
            and rec.shm_name == handle.shm_name
            and rec.version == handle.version
            and rec.config == clusterer.config
        ):
            warm = clusterer.fastpath.is_warm(weights, clusterer.config.weight_dtype)
            return LayerDelta(
                name=name,
                version=handle.version,
                epoch=rec.epoch,
                state=clusterer.state,
                warm=warm,
                digest=delta_digest(
                    name, handle.version, rec.epoch, warm, clusterer.state
                ),
            )
        return self._full_task(name, clusterer, weights, handle)

    # -- submission, collection ------------------------------------------

    def _ledger(self, slot: int, kind: str, nbytes: int) -> None:
        """Record one parent <-> slot transfer under ``shard:<kind>:node<slot>``.

        ``gather`` flows slot -> parent; ``ship`` the other way.
        """
        if slot + 1 >= len(self._group):
            self._group = LearnerGroup(slot + 2)
        parent, node = self._group.primary.name, self._group.devices[slot + 1].name
        src, dst = (node, parent) if kind == "gather" else (parent, node)
        global_ledger().record(src, dst, nbytes, tag=f"shard:{kind}:node{slot}")

    def _submit_slot(
        self, slot: int, op: str, kwargs: dict, batch: list
    ) -> "Future | None":
        """Submit one slot batch.

        ``None`` signals a worker already dead at submit time (the
        caller treats it as a crash).  The batch is pickled once here to
        measure it; that one number feeds both :class:`TransportStats`
        and the ``shard:ship`` ledger record, so the two reconcile
        exactly.
        """
        try:
            future = self._state["slots"][slot].submit(
                _run_slot_batch, op, kwargs, batch
            )
        except BrokenExecutor:
            return None
        nbytes = _pickled_size(batch)
        self.transport.record_batch(batch, nbytes)
        self._ledger(slot, "ship", nbytes)
        self._state["inflight"].append(future)
        return future

    def _map_slots(self, op, layers, kwargs) -> list[LayerOutcome]:
        self._ensure_generation(layers)
        self.transport.begin_sweep()
        spec: dict[str, tuple] = {}
        batches: list[list] = [[] for _ in self._state["slots"]]
        by_name: dict[str, LayerOutcome] = {}
        for name, clusterer, weights in layers:
            if name in self._quarantined:
                # Poison layer: never shipped again; runs in-parent with
                # the exact worker-path semantics (cloned clusterer).
                by_name[name] = self._run_in_parent(
                    op, name, clusterer, weights, kwargs
                )
                continue
            handle = self._export_weight(name, weights)
            spec[name] = (clusterer, weights, handle)
            batches[self._pins[name]].append(
                self._inject_faults(
                    self._build_task(name, clusterer, weights, handle), name
                )
            )
        # Submit everything first (slots run concurrently), then collect
        # in slot order; a slot with no work this sweep is left alone.
        futures = [
            self._submit_slot(slot, op, kwargs, batch) if batch else None
            for slot, batch in enumerate(batches)
        ]
        for slot, (batch, future) in enumerate(zip(batches, futures)):
            if not batch:
                continue
            outcomes = self._collect_slot(slot, op, kwargs, batch, spec, future)
            self._ledger(slot, "gather", _pickled_size(outcomes))
            for outcome in outcomes:
                by_name[outcome.name] = outcome
        return [by_name[name] for name, _, _ in layers]

    # -- failure recovery -----------------------------------------------

    def _inject_faults(
        self, task: "LayerTask | LayerDelta", name: str
    ) -> "LayerTask | LayerDelta":
        """Apply any armed injections to one outbound task (chaos hook).

        Worker-side kinds ride along as the task's ``fault`` directive;
        ``corrupt_delta`` perturbs a *copy* of the delta's state after
        its digest was computed (corruption exists only on the wire);
        ``drop_shm`` unlinks the layer's live block out from under the
        engine, exactly as an external ``/dev/shm`` reaper would.
        No-op on fault-free engines.
        """
        injector = self.faults
        if injector is None:
            return task
        for kind in _WORKER_FAULTS:
            spec = injector.fire(kind, name)
            if spec is not None:
                directive = FaultDirective(kind=kind, layer=name, seconds=spec.seconds)
                task = replace(task, fault=directive)
                break
        if isinstance(task, LayerDelta) and injector.fire("corrupt_delta", name):
            task = replace(task, state=corrupted_state(task.state))
        if injector.fire("drop_shm", name):
            self._drop_shm_block(name)
        return task

    def _drop_shm_block(self, name: str) -> None:
        """Simulate an externally-reaped block for ``name`` (injection).

        The block is unlinked while the parent's export (and any worker
        lease) still references it; the sync record is dropped so the
        next shipment attaches -- and trips over -- the missing block,
        surfacing as :class:`~repro.tensor.serialization.ShmLost`.
        """
        export = self._state["exports"].get(name)
        if export is not None:
            try:
                export.shm.unlink()
            except FileNotFoundError:
                pass
        self._sync.pop(name, None)

    def _drop_export(self, name: str) -> None:
        """Forget (and release) the layer's export after its block vanished."""
        export = self._state["exports"].pop(name, None)
        self._state["export_refs"].pop(name, None)
        self._sync.pop(name, None)
        if export is not None:
            export.close()  # tolerates the already-unlinked block

    def _collect_slot(
        self,
        slot: int,
        op: str,
        kwargs: dict,
        batch: list,
        spec: dict,
        future: "Future | None",
    ) -> list[LayerOutcome]:
        """Collect one slot's outcomes, absorbing every recoverable failure.

        The retry loop implements the recovery taxonomy (see
        ``docs/robustness.md``): a hang past the batch deadline kills and
        respawns the worker; a crash respawns it; a stale cache or
        corrupt payload re-ships full to the live worker; a lost shm
        block re-exports first; a transient error backs off
        exponentially (:meth:`~repro.core.config.RetryPolicy.backoff`)
        and retries in place.  Each retry re-ships the batch as full
        tasks.  After ``retry.retries`` failed shipments the batch falls
        back to in-parent serial execution -- the sweep still completes
        -- and each layer's failure count advances toward quarantine.
        :class:`~repro.core.faults.PoolExhausted` (respawn budget spent)
        is deliberately *not* absorbed: it propagates so the compressor
        can demote the whole run to the serial loop.
        """
        deadline = self._deadline(len(batch))
        policy = self.config.retry
        attempt = 0
        while True:
            kind = None
            if future is None:
                kind = "crash"  # worker was already dead at submit time
            else:
                try:
                    return future.result(timeout=deadline)
                except FutureTimeout:
                    kind = "hang"
                except BrokenExecutor:
                    kind = "crash"
                except (StaleWorkerCache, CorruptPayload):
                    kind = "stale"
                except ShmLost:
                    kind = "shm-lost"
                except TransientWorkerError:
                    kind = "transient"
            # Repair the slot before deciding retry vs fallback, so a
            # hung or dead worker never lingers into the next sweep.
            if kind == "hang":
                self._respawn_slot(slot, kill=True)
            elif kind == "crash":
                self._respawn_slot(slot)
            if kind == "shm-lost":
                for task in batch:
                    self._drop_export(task.name)
            if attempt >= policy.retries:
                return self._fallback_in_parent(op, kwargs, batch, spec, kind)
            attempt += 1
            if kind == "transient":
                time.sleep(policy.backoff(attempt))
            batch = self._rebuild_full(batch, spec)
            future = self._submit_slot(slot, op, kwargs, batch)

    def _rebuild_full(self, batch: list, spec: dict) -> list:
        """Re-ship a failed batch as full tasks (re-exporting as needed).

        Injections are re-applied on the rebuilt tasks: a fault spec with
        ``times > 1`` keeps firing on retries, which is how the chaos
        suite drives the retry budget all the way to quarantine.
        """
        full_batch = []
        for task in batch:
            clusterer, weights, _ = spec[task.name]
            handle = self._export_weight(task.name, weights)
            spec[task.name] = (clusterer, weights, handle)
            full_batch.append(
                self._inject_faults(
                    self._full_task(task.name, clusterer, weights, handle),
                    task.name,
                )
            )
        return full_batch

    def _fallback_in_parent(
        self, op: str, kwargs: dict, batch: list, spec: dict, kind: str
    ) -> list[LayerOutcome]:
        """Out of retries: run the batch in-parent and advance quarantine.

        The sweep still completes bit-identically (the in-parent path
        reproduces the worker-path semantics exactly); each layer's
        failure count advances, and a layer reaching ``retry.retries + 1``
        fallbacks is quarantined -- permanently executed in-parent, never
        shipped again -- with a
        :class:`~repro.core.faults.RobustnessWarning`.
        """
        outcomes = []
        for task in batch:
            name = task.name
            failures = self._layer_failures.get(name, 0) + 1
            self._layer_failures[name] = failures
            self._sync.pop(name, None)
            if (
                failures > self.config.retry.retries
                and name not in self._quarantined
            ):
                self._quarantined.add(name)
                warnings.warn(
                    f"layer {name!r} failed {failures} shipped batches (last "
                    f"failure: {kind}); quarantining it to in-parent serial "
                    "execution for the rest of the run",
                    RobustnessWarning,
                    stacklevel=6,
                )
            clusterer, weights, _ = spec[name]
            outcomes.append(self._run_in_parent(op, name, clusterer, weights, kwargs))
        return outcomes

    def _run_in_parent(
        self, op: str, name: str, clusterer: DKMClusterer, weights, kwargs: dict
    ) -> LayerOutcome:
        """Execute one layer in the parent with worker-path semantics.

        Mirrors a worker's cold full-task install exactly: a *fresh*
        clusterer seeded with a copy of the parent's state (the parent clusterer is never
        mutated before the merge -- a later sweep failure followed by a
        degraded re-run must see unchanged inputs), the warm token
        becoming a phantom ``mark_computed``, and stats shipped as the
        fresh cache's totals, which the merge treats as deltas.  Counter
        accounting therefore stays bit-identical to the worker path.
        """
        from repro.core.compressor import SWEEP_OPS

        fn = SWEEP_OPS[op]
        local = DKMClusterer(clusterer.config)
        state = clusterer.state
        if state is not None:
            local.state = replace(
                state, centroids=np.array(state.centroids, copy=True)
            )
        if clusterer.fastpath.is_warm(weights, clusterer.config.weight_dtype):
            local.fastpath.mark_computed(weights, clusterer.config.weight_dtype)
        result = fn(local, weights, **kwargs)
        return LayerOutcome(
            name=name,
            result=result,
            state=local.state,
            stats=local.fastpath.stats,
            table=local.fastpath.peek_table(),
        )
