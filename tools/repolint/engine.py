"""The repo-lint engine: walk files, run rules, apply suppressions.

Pipeline per file: parse once into a shared :class:`FileContext`, run
every rule, and drop findings covered by ``# repolint: disable`` comments
(marking them used).  What survives fails the run: there is no baseline
of tolerated findings.  Malformed disables (RL001) and disables that
suppressed nothing (RL002) are themselves findings, so the suppression
surface stays honest.
"""

from __future__ import annotations

import os
from typing import Iterable

from tools.repolint.findings import Finding, Report
from tools.repolint.rules import ALL_RULES, KNOWN_RULE_IDS, FileContext, Rule
from tools.repolint.suppress import parse_suppressions


def iter_python_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__"
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    out.append(os.path.join(dirpath, filename))
    return sorted(set(out))


def relpath_posix(path: str, root: str) -> str:
    """``path`` relative to ``root`` with forward slashes."""
    return os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")


def lint_source(
    path: str,
    source: str,
    rules: tuple[Rule, ...] = ALL_RULES,
) -> tuple[list[Finding], int, list[Finding]]:
    """Lint one in-memory file.

    Returns ``(live_findings, suppressed_count, meta_findings)`` where
    meta findings are RL001/RL002 suppression hygiene problems.
    """
    try:
        ctx = FileContext.parse(path, source)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    rule="RL000",
                    path=path,
                    line=exc.lineno or 0,
                    message=f"syntax error: {exc.msg}",
                )
            ],
            0,
            [],
        )
    suppressions = parse_suppressions(path, source, KNOWN_RULE_IDS)
    live: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(ctx):
            supp = suppressions.matches(finding.rule, finding.line)
            if supp is not None:
                supp.used = True
                suppressed += 1
            else:
                live.append(finding)
    meta: list[Finding] = list(suppressions.malformed)
    for supp in suppressions.unused():
        finding = Finding(
            rule="RL002",
            path=path,
            line=supp.line,
            message=(
                f"disable={','.join(supp.rules)} suppresses nothing -- "
                "remove it (the code is already clean)"
            ),
        )
        cover = suppressions.matches("RL002", finding.line)
        if cover is not None and cover is not supp:
            cover.used = True
            suppressed += 1
        else:
            meta.append(finding)
    return live, suppressed, meta


def run_code_suite(
    paths: Iterable[str],
    root: str,
    rules: tuple[Rule, ...] = ALL_RULES,
) -> Report:
    """Run the code rules over ``paths``."""
    report = Report(suite="code")
    for file_path in iter_python_files(paths):
        rel = relpath_posix(file_path, root)
        try:
            with open(file_path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            report.errors.append(f"{rel}: unreadable ({exc})")
            continue
        report.files_checked += 1
        live, suppressed, meta = lint_source(rel, source, rules)
        report.suppressed += suppressed
        report.findings.extend(live + meta)
    return report
