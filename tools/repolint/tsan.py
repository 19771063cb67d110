"""ThreadSanitizer-lite: runtime validation of the RL1xx lock model.

The static analyzer *models* which ``self._*`` attributes are guarded by
which lock; this module checks that model against real executions.  When
installed (``REPRO_TSAN=1`` in the test suite), every lock-owning class
is monkeypatch-instrumented:

- the instance's lock attributes are replaced post-``__init__`` with
  :class:`TrackedLock` proxies that record which threads currently hold
  them (``threading.Condition`` objects built over the same lock are
  re-pointed at the proxy so waits keep working);
- ``__getattribute__``/``__setattr__`` are wrapped so that any access to
  a guarded attribute from an instance whose lock is *not* held by the
  current thread records a :class:`TsanViolation`.

Violations are recorded, not raised, so a racy access surfaces as a
failed assertion in the test-suite hook (one check per test) with the
full access context instead of an exception at an arbitrary stack depth.

The guarded-attribute sets come from
:func:`tools.repolint.rules.locks.collect_lock_classes` over the actual
source tree -- attributes excluded there (``# repolint: disable=RL101``
on the ``__init__`` line) are excluded here too, keeping the static and
dynamic models in lockstep.
"""

from __future__ import annotations

import ast
import os
import threading
import traceback
from dataclasses import dataclass

from tools.repolint.rules.locks import LockClassModel, collect_lock_classes

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_SRC_ROOT = os.path.join(_REPO_ROOT, "src")

#: Modules instrumented by :func:`install`, ordered so base classes are
#: patched before any importing module instantiates them.
DEFAULT_MODULES = (
    "repro.memory.tracker",
    "repro.memory.traffic",
    "repro.core.fastpath",
    "repro.core.marshal",
    "repro.serving.queue",
    "repro.serving.palette",
    "repro.serving.stats",
    "repro.serving.server",
)


@dataclass
class TsanViolation:
    """One guarded-attribute access without the owning lock held."""

    cls: str
    attr: str
    op: str
    thread: str
    location: str

    def render(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.cls}.{self.attr} {self.op} without lock held "
            f"[thread {self.thread}] at {self.location}"
        )


_VIOLATIONS: list[TsanViolation] = []
_VIOLATIONS_LOCK = threading.Lock()
_IN_CHECK = threading.local()


def violations() -> list[TsanViolation]:
    """Snapshot of every violation recorded since install."""
    with _VIOLATIONS_LOCK:
        return list(_VIOLATIONS)


def violation_count() -> int:
    """Number of violations recorded so far (cheap per-test watermark)."""
    with _VIOLATIONS_LOCK:
        return len(_VIOLATIONS)


def violations_since(watermark: int) -> list[TsanViolation]:
    """Violations recorded after a :func:`violation_count` watermark."""
    with _VIOLATIONS_LOCK:
        return list(_VIOLATIONS[watermark:])


def clear_violations() -> None:
    """Drop all recorded violations (test isolation)."""
    with _VIOLATIONS_LOCK:
        _VIOLATIONS.clear()


def _record(cls_name: str, attr: str, op: str) -> None:
    frame = traceback.extract_stack(limit=4)[0]
    violation = TsanViolation(
        cls=cls_name,
        attr=attr,
        op=op,
        thread=threading.current_thread().name,
        location=f"{os.path.basename(frame.filename)}:{frame.lineno}",
    )
    with _VIOLATIONS_LOCK:
        _VIOLATIONS.append(violation)


class TrackedLock:
    """Ownership-recording proxy over a ``threading`` lock.

    Wraps the real lock object, delegating acquire/release while keeping
    a per-thread hold count, so instrumentation can ask the one question
    the stdlib ``Lock`` cannot answer: *does the current thread hold
    this lock?*  Also provides the RLock-protocol hooks ``Condition``
    probes for, delegating to the inner lock when present.
    """

    def __init__(self, inner) -> None:
        self._inner = inner  # repolint: disable=RL101 immutable delegate
        self._holds: dict[int, int] = {}
        self._holds_guard = threading.Lock()

    def held_by_current_thread(self) -> bool:
        """Whether the calling thread currently holds the lock."""
        with self._holds_guard:
            return self._holds.get(threading.get_ident(), 0) > 0

    def _note_acquire(self) -> None:
        ident = threading.get_ident()
        with self._holds_guard:
            self._holds[ident] = self._holds.get(ident, 0) + 1

    def _note_release(self) -> None:
        ident = threading.get_ident()
        with self._holds_guard:
            count = self._holds.get(ident, 0) - 1
            if count > 0:
                self._holds[ident] = count
            else:
                self._holds.pop(ident, None)

    def acquire(self, *args, **kwargs):
        """Acquire the inner lock, recording the holder on success."""
        got = self._inner.acquire(*args, **kwargs)
        if got:
            self._note_acquire()
        return got

    def release(self) -> None:
        """Release the inner lock, dropping the hold record."""
        self._note_release()
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # Condition protocol (delegated when the inner lock is an RLock).

    def _is_owned(self):
        """RLock protocol: whether the current thread owns the lock."""
        return self.held_by_current_thread()

    def _release_save(self):
        """RLock protocol: fully release, returning the restore token."""
        ident = threading.get_ident()
        with self._holds_guard:
            count = self._holds.pop(ident, 0)
        if hasattr(self._inner, "_release_save"):
            return (count, self._inner._release_save())
        self._inner.release()
        return (count, None)

    def _acquire_restore(self, token) -> None:
        """RLock protocol: re-acquire to the saved depth."""
        count, inner_token = token
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(inner_token)
        else:
            self._inner.acquire()
        ident = threading.get_ident()
        with self._holds_guard:
            self._holds[ident] = max(count, 1)

    def locked(self):
        """Delegate ``locked()`` to the inner lock when available."""
        inner_locked = getattr(self._inner, "locked", None)
        if inner_locked is not None:
            return inner_locked()
        with self._holds_guard:
            return bool(self._holds)


def arm_instance(instance, lock_attrs: frozenset[str]) -> None:
    """Wrap an instance's locks with :class:`TrackedLock` and arm checks.

    Conditions constructed over a wrapped lock are re-pointed at the
    proxy (``threading.Condition`` binds ``acquire``/``release`` eagerly
    in its ``__init__``).  Safe to call on an already-armed instance.
    """
    replaced: dict[int, TrackedLock] = {}
    inst_dict = object.__getattribute__(instance, "__dict__")
    for attr in lock_attrs:
        current = inst_dict.get(attr)
        if current is None or isinstance(current, TrackedLock):
            continue
        if isinstance(current, threading.Condition):
            continue  # handled below via its _lock
        tracked = TrackedLock(current)
        replaced[id(current)] = tracked
        object.__setattr__(instance, attr, tracked)
    for attr in lock_attrs:
        current = inst_dict.get(attr)
        if isinstance(current, threading.Condition):
            tracked = replaced.get(id(current._lock))
            if tracked is None:
                tracked = TrackedLock(current._lock)
                replaced[id(current._lock)] = tracked
            current._lock = tracked
            current.acquire = tracked.acquire
            current.release = tracked.release
            current._is_owned = tracked._is_owned
            current._release_save = tracked._release_save
            current._acquire_restore = tracked._acquire_restore
    object.__setattr__(instance, "_tsan_armed", True)


def _locks_held(instance, lock_attrs: frozenset[str]) -> bool:
    for attr in lock_attrs:
        try:
            lock = object.__getattribute__(instance, attr)
        except AttributeError:
            continue
        if isinstance(lock, TrackedLock) and lock.held_by_current_thread():
            return True
        if isinstance(lock, threading.Condition) and isinstance(
            lock._lock, TrackedLock
        ):
            if lock._lock.held_by_current_thread():
                return True
    return False


def instrument_class(
    cls, guarded: frozenset[str], lock_attrs: frozenset[str]
) -> None:
    """Monkeypatch ``cls`` so guarded-attribute accesses are checked.

    Idempotent: a second call on the same class is a no-op.
    """
    if getattr(cls, "_tsan_instrumented", False):
        return
    orig_init = cls.__init__
    orig_getattribute = cls.__getattribute__
    orig_setattr = cls.__setattr__
    cls_name = cls.__name__
    guarded = frozenset(guarded)
    lock_attrs = frozenset(lock_attrs)

    def _check(self, name: str, op: str) -> None:
        if getattr(_IN_CHECK, "active", False):
            return
        _IN_CHECK.active = True
        try:
            if not _locks_held(self, lock_attrs):
                _record(cls_name, name, op)
        finally:
            _IN_CHECK.active = False

    def tsan_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        arm_instance(self, lock_attrs)

    def tsan_getattribute(self, name):
        if name in guarded:
            try:
                armed = object.__getattribute__(self, "_tsan_armed")
            except AttributeError:
                armed = False
            if armed:
                _check(self, name, "read")
        return orig_getattribute(self, name)

    def tsan_setattr(self, name, value):
        if name in guarded:
            try:
                armed = object.__getattribute__(self, "_tsan_armed")
            except AttributeError:
                armed = False
            if armed:
                _check(self, name, "write")
        orig_setattr(self, name, value)

    tsan_init.__name__ = "__init__"
    cls.__init__ = tsan_init
    cls.__getattribute__ = tsan_getattribute
    cls.__setattr__ = tsan_setattr
    cls._tsan_instrumented = True
    cls._tsan_guarded = guarded
    cls._tsan_lock_attrs = lock_attrs


def _model_for_source(path: str) -> list[LockClassModel]:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return collect_lock_classes(ast.parse(source), source)


def _runtime_guarded(model: LockClassModel, source: str) -> frozenset[str]:
    """The guarded set minus attrs with *any* suppressed static access.

    An attribute that carries a justified ``# repolint: disable=RL101``
    anywhere in the class is intentionally accessed lock-free on some
    path; checking it at runtime would flag exactly those sanctioned
    accesses, so it is dropped from the dynamic model too.
    """
    dropped = set(model.excluded)
    for line in source.splitlines():
        if "repolint: disable=" not in line or "RL101" not in line.split(
            "#", 1
        )[-1]:
            continue
        for attr in model.guarded:
            if f"self.{attr}" in line:
                dropped.add(attr)
    return frozenset(model.guarded - dropped)


def install(modules: tuple[str, ...] = DEFAULT_MODULES) -> list[str]:
    """Instrument every lock-owning class in ``modules``.

    Imports each module (patching classes before dependent modules
    construct instances), then retro-arms the process-global singletons
    that were created during the imports themselves.  Returns the list
    of instrumented ``Module.Class`` names.
    """
    import importlib

    instrumented: list[str] = []
    for dotted in modules:
        source_path = os.path.join(
            _SRC_ROOT, dotted.replace(".", os.sep) + ".py"
        )
        if not os.path.exists(source_path):
            continue
        with open(source_path, encoding="utf-8") as fh:
            source = fh.read()
        models = collect_lock_classes(ast.parse(source), source)
        if not models:
            continue
        module = importlib.import_module(dotted)
        for model in models:
            cls = getattr(module, model.name, None)
            if cls is None:
                continue
            instrument_class(
                cls, _runtime_guarded(model, source), model.lock_attrs
            )
            instrumented.append(f"{dotted}.{model.name}")
    _arm_known_singletons()
    return instrumented


def _arm_known_singletons() -> None:
    """Arm module-level instances created before their class was patched."""
    try:
        from repro.memory.traffic import global_ledger

        ledger = global_ledger()
        if getattr(type(ledger), "_tsan_instrumented", False):
            arm_instance(ledger, type(ledger)._tsan_lock_attrs)
    except ImportError:  # pragma: no cover - partial installs
        pass
    try:
        from repro.memory.tracker import global_registry

        registry = global_registry()
        for tracker in list(registry.snapshot_all()):
            instance = registry.get(tracker)
            if getattr(type(instance), "_tsan_instrumented", False):
                arm_instance(instance, type(instance)._tsan_lock_attrs)
    except ImportError:  # pragma: no cover - partial installs
        pass


def enabled() -> bool:
    """Whether the environment asks for tsan mode (``REPRO_TSAN=1``)."""
    return os.environ.get("REPRO_TSAN", "") == "1"
