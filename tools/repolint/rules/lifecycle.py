"""RL4xx -- resource lifecycle for shm blocks and executors.

A leaked ``SharedMemory`` block outlives the process (POSIX shm survives
in ``/dev/shm``), and a leaked executor strands worker processes; both
classes of leak have bitten this repo's chaos tests.  Every construction
of a leak-prone resource must therefore be visibly owned at the
construction site:

- the context expression of a ``with`` block,
- a local that a ``try/finally`` (or an exception handler re-raising
  after cleanup) disposes of,
- handed straight to another call / container / ``self`` attribute --
  i.e. a registry or wrapper that owns ``close()``,
- returned to the caller (factory functions transfer ownership).

Anything else is **RL401**.

**RL402** guards the serving layer's shutdown paths: a
``Thread.join()`` with no timeout inside ``src/repro/serving`` can
deadlock ``stop()``/``close()`` forever behind a hung decode step (the
exact seed bug the supervised scheduler fixed), so every zero-argument
``.join()`` there must either pass a deadline or carry a
``# repolint: disable=RL402 <reason>`` stating why blocking forever is
safe.  The zero-argument restriction keeps ``str.join(parts)`` (always
one argument) out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repolint.findings import Finding
from tools.repolint.rules.base import (
    FileContext,
    Rule,
    call_name,
    enclosing_function,
)

RESOURCE_FACTORIES = frozenset(
    {
        "SharedMemory",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
    }
)


def _assigned_names(node: ast.Assign) -> list[str]:
    names = []
    for target in node.targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
    return names


SERVING_PATH_FRAGMENT = "src/repro/serving"


class JoinTimeoutRule(Rule):
    """RL402: timeout-less ``.join()`` in the serving layer."""

    id = "RL402"
    summary = (
        "Thread.join() without a timeout in src/repro/serving can "
        "deadlock shutdown behind a hung step; pass a deadline or "
        "suppress with a reason"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag zero-argument ``.join()`` calls in serving source files."""
        if SERVING_PATH_FRAGMENT not in ctx.path.replace("\\", "/"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr != "join" or node.args or node.keywords:
                continue
            yield self.finding(
                ctx,
                node,
                ".join() without a timeout can deadlock stop()/close() "
                "behind a hung step -- pass join(timeout=...) and "
                "escalate on overrun",
            )


class ResourceLifecycleRule(Rule):
    """RL401: shm/executor constructed without a visible owner."""

    id = "RL401"
    summary = (
        "SharedMemory/executor constructions must be "
        "owned: with-block, try/finally, registry hand-off, or returned"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag resource constructions with no enclosing ownership."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name not in RESOURCE_FACTORIES:
                continue
            if self._is_owned(ctx, node):
                continue
            yield self.finding(
                ctx,
                node,
                f"{name}(...) constructed without a visible owner -- "
                "use `with`, try/finally, hand it to a registry/wrapper, "
                "or return it to the caller",
            )

    def _is_owned(self, ctx: FileContext, node: ast.Call) -> bool:
        parent = ctx.parents.get(node)
        # Walk up through pure expression wrappers (list comps, tuples,
        # conditional expressions) to the owning statement.
        stmt_child: ast.AST = node
        stmt = parent
        while stmt is not None and not isinstance(stmt, ast.stmt):
            if isinstance(stmt, ast.Call) and stmt_child is not stmt.func:
                return True  # argument of another call: handed off
            if isinstance(stmt, ast.withitem):
                return True
            stmt_child = stmt
            stmt = ctx.parents.get(stmt)
        if stmt is None:
            return False
        if isinstance(stmt, ast.Return):
            return True
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return True
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return True  # self attribute / container slot
            names = _assigned_names(stmt)
            if names and self._locals_owned(ctx, stmt, names):
                return True
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, (ast.Attribute, ast.Subscript)
        ):
            return True
        return False

    def _locals_owned(
        self, ctx: FileContext, assign: ast.Assign, names: list[str]
    ) -> bool:
        """Whether a local-bound resource is later disposed or handed off."""
        fn = enclosing_function(ctx, assign)
        scope: ast.AST | None = fn if fn is not None else ctx.tree
        target_names = set(names)

        # (a) a try whose finally/handler mentions the name
        for anc in ctx.ancestors(assign):
            if isinstance(anc, ast.Try):
                cleanup_nodes: list[ast.AST] = list(anc.finalbody)
                for handler in anc.handlers:
                    cleanup_nodes.extend(handler.body)
                for cleanup in cleanup_nodes:
                    for sub in ast.walk(cleanup):
                        if (
                            isinstance(sub, ast.Name)
                            and sub.id in target_names
                        ):
                            return True
            if anc is scope:
                break

        # (b) later in the same scope: returned, stored into an
        # attribute/container, or passed to a call.  (ast.walk order is
        # not source order, so "later" is by line number.)
        for sub in ast.walk(scope):
            if sub is assign or getattr(sub, "lineno", -1) < assign.lineno:
                continue
            if isinstance(sub, ast.Try):
                cleanup_nodes = list(sub.finalbody)
                for handler in sub.handlers:
                    cleanup_nodes.extend(handler.body)
                for cleanup in cleanup_nodes:
                    for leaf in ast.walk(cleanup):
                        if (
                            isinstance(leaf, ast.Name)
                            and leaf.id in target_names
                        ):
                            return True
            if isinstance(sub, ast.Return) and sub.value is not None:
                for leaf in ast.walk(sub.value):
                    if isinstance(leaf, ast.Name) and leaf.id in target_names:
                        return True
            if isinstance(sub, ast.Assign):
                stores_elsewhere = any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in sub.targets
                )
                if stores_elsewhere:
                    for leaf in ast.walk(sub.value):
                        if (
                            isinstance(leaf, ast.Name)
                            and leaf.id in target_names
                        ):
                            return True
            if isinstance(sub, ast.Call):
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    for leaf in ast.walk(arg):
                        if (
                            isinstance(leaf, ast.Name)
                            and leaf.id in target_names
                        ):
                            return True
        return False
