"""Layering: the algorithm package ``repro.core`` never imports the serving
stack, and no module of ``repro`` imports a threading library.

``repro.serving`` builds on ``repro.core`` (the server routes
``ClusteredLinear`` layers to its tile cache); an import the other way,
even one deferred into a function body, ties the clustering code to the
server.

The library runs on its caller's thread: the server decodes inside
``ServerRequest.result()``, so nothing in ``src/repro`` starts a thread,
and nothing holds a lock.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"
CORE = REPRO / "core"
THREADING_MODULES = ("threading", "_thread", "concurrent.futures")


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


def _imported_modules(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _imports_threading(node: ast.AST) -> bool:
    return any(
        module == m or module.startswith(m + ".")
        for module in _imported_modules(node)
        for m in THREADING_MODULES
    )


def _threading_imports(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(), str(path))
    return sorted(node.lineno for node in ast.walk(tree) if _imports_threading(node))


def test_library_imports_no_threading():
    files = sorted(REPRO.rglob("*.py"))
    assert len(files) > 50
    offenders = [
        f"{path.relative_to(REPRO)}:{line}" for path in files for line in _threading_imports(path)
    ]
    assert offenders == []


def test_threading_import_check_sees_every_spelling(tmp_path):
    module = tmp_path / "spellings.py"
    module.write_text(
        "import threading\n"
        "import _thread as raw\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from concurrent import futures\n"
        "def lazy():\n"
        "    from threading import Lock\n"
        "import threadpoolctl\n"
        "from . import threading\n"
    )
    assert _threading_imports(module) == [1, 2, 3, 4, 6]
