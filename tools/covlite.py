"""Zero-dependency line-coverage collector (``coverage.py``-compatible JSON).

The container has no ``coverage``/``pytest-cov``; CI installs the real
thing, but the ratchet in :mod:`tools.check_coverage` must also be
runnable locally.  This module is the local stand-in: a ``sys.settrace``
line collector scoped to one source root, plus a reporter that emits the
subset of the ``coverage.py`` JSON schema the ratchet consumes
(``files -> {executed_lines, missing_lines, summary}`` and ``totals``).

Activated by the repo-level ``conftest.py`` when ``REPRO_COV=1``:

    REPRO_COV=1 PYTHONPATH=src python -m pytest -q   # writes coverage.json

Statements are derived from the compiled code objects' line tables
(:func:`dis.findlinestarts`, recursively), the same source of truth
``coverage.py`` uses -- docstrings, ``else:`` lines, and blank lines are
naturally excluded.  Only the tracing process is observed: code running
in a spawned subprocess does not count.
"""

from __future__ import annotations

import dis
import json
import os
import sys
import threading
from types import CodeType

_executed: dict[str, set[int]] = {}
_root: str | None = None


def _trace(frame, event, arg):
    if event == "call":
        filename = frame.f_code.co_filename
        if _root is None or not filename.startswith(_root):
            return None  # never line-trace foreign frames (keeps cost sane)
        return _trace
    if event == "line":
        _executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _trace


def install(root: str) -> None:
    """Start collecting line hits for files under ``root`` (absolute)."""
    global _root
    _root = os.path.abspath(root) + os.sep
    threading.settrace(_trace)
    sys.settrace(_trace)


def uninstall() -> None:
    sys.settrace(None)
    threading.settrace(None)  # type: ignore[arg-type]


def statement_lines(path: str) -> set[int]:
    """The executable line numbers of ``path``, from its code objects."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines: set[int] = set()
    stack: list[CodeType] = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(
            line
            for _, line in dis.findlinestarts(code)
            # line 0 is the synthetic RESUME prologue, None is art-less
            # bytecode (3.13's findlinestarts can emit it): neither is a
            # source statement.
            if line is not None and line > 0
        )
        stack.extend(
            const for const in code.co_consts if isinstance(const, CodeType)
        )
    return lines


def report(source_root: str, output: str, relative_to: str) -> dict:
    """Write the ``coverage.json`` payload for every ``.py`` under
    ``source_root``, paths relative to ``relative_to``."""
    files: dict[str, dict] = {}
    total_statements = total_covered = 0
    for dirpath, _, filenames in os.walk(os.path.abspath(source_root)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            try:
                statements = statement_lines(path)
            except SyntaxError:
                continue
            executed = _executed.get(path, set()) & statements
            rel = os.path.relpath(path, os.path.abspath(relative_to))
            percent = 100.0 * len(executed) / len(statements) if statements else 100.0
            files[rel] = {
                "executed_lines": sorted(executed),
                "missing_lines": sorted(statements - executed),
                "summary": {
                    "covered_lines": len(executed),
                    "num_statements": len(statements),
                    "percent_covered": percent,
                },
            }
            total_statements += len(statements)
            total_covered += len(executed)
    payload = {
        "meta": {"collector": "tools.covlite"},
        "files": files,
        "totals": {
            "covered_lines": total_covered,
            "num_statements": total_statements,
            "percent_covered": (
                100.0 * total_covered / total_statements
                if total_statements
                else 100.0
            ),
        },
    }
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return payload
