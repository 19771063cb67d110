"""Shared AST plumbing for repo-lint rules.

Rules are stateless objects with an ``id``, a one-line ``summary``, and a
``check(ctx)`` generator of findings.  :class:`FileContext` carries one
parsed file plus a parent map so rules can walk *up* the tree (lock
contexts, ownership of a constructor call) as well as down.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from tools.repolint.findings import Finding


@dataclass
class FileContext:
    """One source file, parsed once and shared by every rule."""

    path: str
    source: str
    tree: ast.AST
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        """Parse ``source`` and build the child->parent map."""
        tree = ast.parse(source, filename=path)
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return cls(path=path, source=source, tree=tree, parents=parents)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def symbol_for(self, node: ast.AST) -> str:
        """Dotted in-file scope of ``node`` (``Class.method`` style)."""
        parts: list[str] = []
        for anc in self.ancestors(node):
            if isinstance(
                anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(anc.name)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            parts.insert(0, node.name)
        return ".".join(reversed(parts))


class Rule:
    """Base class: subclasses set ``id``/``summary`` and yield findings."""

    id = "RL000"
    summary = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (default: none)."""
        return iter(())

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=ctx.symbol_for(node),
        )


def call_name(node: ast.Call) -> str:
    """The final identifier of a call target (``a.b.C()`` -> ``C``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    elif isinstance(current, ast.Call):
        inner = dotted_name(current.func)
        parts.append(f"{inner}()" if inner else "()")
    else:
        return ""
    return ".".join(reversed(parts))


def is_self_attribute(node: ast.AST, attr: str | None = None) -> bool:
    """Whether ``node`` is ``self.<attr>`` (any attribute when ``None``)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Final identifiers of a function's decorators."""
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.add(name.split(".")[-1])
    return names
