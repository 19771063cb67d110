"""RL1xx -- lock discipline for lock-owning classes.

A class whose ``__init__`` creates a ``threading.Lock``/``RLock``/
``Condition`` under a ``self._*`` attribute is *lock-owning*: its
underscore-prefixed instance state is treated as guarded by that lock,
and every read or write of a guarded attribute must happen lexically
inside ``with self._lock`` (or any other lock-like attribute of the same
instance).  This is the static model behind the repo's "bit-identical
under any interleaving" guarantee: ``StepCache``, ``RequestQueue``,
``TileCache``, ``ServerStats``, and ``MarshalRegistry`` all follow it.

Private helper methods (leading underscore) follow the repo convention
"caller holds the lock": their unguarded accesses are accepted as long as
every in-class call site is itself inside a lock context or another
lock-requiring private method.  A call to such a helper from an unlocked
public context is the violation (RL102) -- flagged at the call site,
where the fix belongs.

``__init__`` is exempt (construction is single-threaded by contract).
An attribute can be excluded from the guarded model by putting a
``# repolint: disable=RL101 <reason>`` on its ``__init__`` assignment
line -- the exclusion also propagates to the runtime tsan mode, keeping
the static and dynamic models in sync.

Rules:

- **RL101**: guarded attribute accessed outside a lock context.
- **RL102**: lock-requiring private method called outside a lock context.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from tools.repolint.findings import Finding
from tools.repolint.rules.base import (
    FileContext,
    Rule,
    call_name,
    decorator_names,
    is_self_attribute,
)

LOCK_FACTORY_NAMES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

_UNGUARDED_MARK_RE = re.compile(r"#\s*repolint:\s*disable=[A-Z0-9,]*RL101")


@dataclass
class LockClassModel:
    """The guarded-state model of one lock-owning class."""

    name: str
    line: int
    lock_attrs: frozenset[str]
    guarded: frozenset[str]
    excluded: frozenset[str] = frozenset()
    #: attr -> line of its `disable=RL101` model-exclusion marker
    marker_lines: dict[str, int] = field(default_factory=dict)
    node: ast.ClassDef | None = field(default=None, repr=False)


def _init_method(cls: ast.ClassDef) -> ast.FunctionDef | None:
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return item
    return None


def _assigned_self_attrs(
    init: ast.FunctionDef,
) -> Iterator[tuple[str, ast.AST, int]]:
    """Yield ``(attr, value, line)`` for every ``self.X = ...`` in init."""
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if is_self_attribute(target):
                    yield target.attr, node.value, node.lineno
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if is_self_attribute(node.target):
                yield node.target.attr, node.value, node.lineno


def _is_lock_factory(value: ast.AST) -> bool:
    return isinstance(value, ast.Call) and call_name(value) in LOCK_FACTORY_NAMES


def collect_lock_classes(
    tree: ast.AST, source: str = ""
) -> list[LockClassModel]:
    """Find every lock-owning class and its guarded-attribute model.

    ``source`` (when given) is scanned for RL101 disables on ``__init__``
    assignment lines; those attributes are *excluded* from the model --
    the hook for intentionally lock-free state.
    """
    source_lines = source.splitlines()
    models: list[LockClassModel] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        init = _init_method(node)
        if init is None:
            continue
        lock_attrs: set[str] = set()
        guarded: set[str] = set()
        excluded: set[str] = set()
        marker_lines: dict[str, int] = {}
        for attr, value, line in _assigned_self_attrs(init):
            if _is_lock_factory(value):
                lock_attrs.add(attr)
                continue
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            text = (
                source_lines[line - 1] if 0 < line <= len(source_lines) else ""
            )
            if _UNGUARDED_MARK_RE.search(text):
                excluded.add(attr)
                marker_lines[attr] = line
            else:
                guarded.add(attr)
        guarded -= lock_attrs
        excluded -= lock_attrs
        if lock_attrs and any(a.startswith("_") for a in lock_attrs):
            models.append(
                LockClassModel(
                    name=node.name,
                    line=node.lineno,
                    lock_attrs=frozenset(lock_attrs),
                    guarded=frozenset(guarded),
                    excluded=frozenset(excluded),
                    marker_lines=marker_lines,
                    node=node,
                )
            )
    return models


def _holds_lock(
    ctx: FileContext, node: ast.AST, lock_attrs: frozenset[str]
) -> bool:
    """Whether ``node`` sits lexically inside ``with self.<lock>``."""
    for anc in ctx.ancestors(node):
        if isinstance(anc, (ast.With, ast.AsyncWith)):
            for item in anc.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                if isinstance(expr, ast.Attribute) and is_self_attribute(
                    expr
                ):
                    if expr.attr in lock_attrs:
                        return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Keep climbing: a nested def inside `with self._lock` only
            # runs later, but flagging closures is out of scope for the
            # lite analyzer -- treat the lexical context as authoritative.
            continue
    return False


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    out = []
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name != "__init__":
            if "staticmethod" in decorator_names(item):
                continue
            if "classmethod" in decorator_names(item):
                continue
            out.append(item)
    return out


def _guarded_accesses(
    method: ast.FunctionDef, guarded: frozenset[str]
) -> list[ast.Attribute]:
    return [
        node
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and is_self_attribute(node)
        and node.attr in guarded
    ]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


class LockDisciplineRule(Rule):
    """RL101: guarded state touched outside the owning lock."""

    id = "RL101"
    summary = (
        "mutable self._* state of a lock-owning class must be accessed "
        "inside `with self._lock`"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag unlocked guarded-attribute accesses and unlocked calls to
        lock-requiring private helpers (the latter under RL102's id via
        :class:`LockHelperCallRule`, which shares this analysis)."""
        for model, method, access in iter_unlocked_public_accesses(ctx):
            verb = (
                "writes" if isinstance(access.ctx, (ast.Store, ast.Del))
                else "reads"
            )
            yield self.finding(
                ctx,
                access,
                f"{model.name}.{method.name} {verb} guarded attribute "
                f"'self.{access.attr}' outside `with self.<lock>` "
                f"(locks: {', '.join(sorted(model.lock_attrs))})",
            )
        # A model-exclusion marker on an __init__ line never suppresses a
        # concrete access finding, so emit one at the marker itself: the
        # marker's own disable comment catches it, keeping the suppression
        # "used" -- and if the marker line stops matching an assignment,
        # the orphaned disable resurfaces as RL002.
        for model in collect_lock_classes(ctx.tree, ctx.source):
            for attr, line in sorted(model.marker_lines.items()):
                yield Finding(
                    rule=self.id,
                    path=ctx.path,
                    line=line,
                    message=(
                        f"{model.name}: 'self.{attr}' excluded from the "
                        "guarded model by this marker"
                    ),
                    symbol=f"{model.name}.__init__",
                )


class LockHelperCallRule(Rule):
    """RL102: lock-requiring private helper called without the lock."""

    id = "RL102"
    summary = (
        "private methods that touch guarded state unlocked must only be "
        "called while holding the lock"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag unlocked in-class call sites of lock-requiring helpers."""
        for model, caller, call, callee in iter_unlocked_helper_calls(ctx):
            yield self.finding(
                ctx,
                call,
                f"{model.name}.{caller.name} calls lock-requiring helper "
                f"'self.{callee}()' outside `with self.<lock>`",
            )


def _class_analysis(ctx: FileContext):
    """Per lock-owning class: methods, unlocked accesses, helper calls."""
    for model in collect_lock_classes(ctx.tree, ctx.source):
        assert model.node is not None
        methods = _methods(model.node)
        unlocked: dict[str, list[ast.Attribute]] = {}
        for method in methods:
            unlocked[method.name] = [
                access
                for access in _guarded_accesses(method, model.guarded)
                if not _holds_lock(ctx, access, model.lock_attrs)
            ]
        requires_lock = {
            name for name, accesses in unlocked.items() if accesses
        }
        yield model, methods, unlocked, requires_lock


def iter_unlocked_public_accesses(ctx: FileContext):
    """Yield ``(model, method, access)`` for RL101 violations.

    A private method's unlocked accesses are excused only when it has at
    least one in-class call site and every call site holds the lock (or
    sits in another lock-requiring private helper, i.e. further up a
    caller-holds-the-lock chain).
    """
    for model, methods, unlocked, requires_lock in _class_analysis(ctx):
        call_sites = _call_sites(ctx, model, methods)
        for method in methods:
            accesses = unlocked[method.name]
            if not accesses:
                continue
            if _is_private(method.name):
                sites = call_sites.get(method.name, [])
                if sites and all(
                    held or _is_private(caller.name)
                    for caller, _, held in sites
                ):
                    continue
                if sites:
                    # Mixed call sites: the unlocked *call* is the bug,
                    # reported by RL102 -- do not double-report here.
                    continue
            for access in accesses:
                yield model, method, access


def iter_unlocked_helper_calls(ctx: FileContext):
    """Yield ``(model, caller, call_node, callee_name)`` for RL102."""
    for model, methods, unlocked, requires_lock in _class_analysis(ctx):
        call_sites = _call_sites(ctx, model, methods)
        for callee, sites in call_sites.items():
            if callee not in requires_lock or not _is_private(callee):
                continue
            for caller, call, held in sites:
                if held or _is_private(caller.name):
                    continue
                yield model, caller, call, callee


def _call_sites(
    ctx: FileContext, model: LockClassModel, methods: list[ast.FunctionDef]
) -> dict[str, list[tuple[ast.FunctionDef, ast.Call, bool]]]:
    """In-class call sites per method name: (caller, call, lock-held)."""
    sites: dict[str, list[tuple[ast.FunctionDef, ast.Call, bool]]] = {}
    names = {m.name for m in methods}
    for method in methods:
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if is_self_attribute(func) and func.attr in names:
                held = _holds_lock(ctx, node, model.lock_attrs)
                sites.setdefault(func.attr, []).append(
                    (method, node, held)
                )
    return sites
