"""Layering: the algorithm package ``repro.core`` never imports the serving
stack.

``repro.serving`` builds on ``repro.core`` (the server routes
``ClusteredLinear`` layers to its tile cache); an import the other way,
even one deferred into a function body, ties the clustering code to the
server.
"""

from __future__ import annotations

import ast
from pathlib import Path

CORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"


def _imports_serving(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
        if node.module == "repro":
            modules += [f"repro.{alias.name}" for alias in node.names]
    else:
        return False
    return any(m == "repro.serving" or m.startswith("repro.serving.") for m in modules)


def test_core_never_imports_serving():
    files = sorted(CORE.glob("*.py"))
    assert files
    offenders = [
        f"core/{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), path.name))
        if _imports_serving(node)
    ]
    assert offenders == []
