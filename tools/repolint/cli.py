"""Command-line entry point: ``python -m tools.repolint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.  The CI
gates are::

    python -m tools.repolint src/ --baseline tools/repolint/baseline.json
    python -m tools.repolint --suite docs --report docs-lint.json
"""

from __future__ import annotations

import argparse
import os
import sys

from tools.repolint.baseline import load_baseline, write_baseline
from tools.repolint.docs import run_docs_suite
from tools.repolint.engine import run_code_suite
from tools.repolint.findings import Report
from tools.repolint.rules import ALL_RULES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tools.repolint",
        description=(
            "AST-based invariant analyzer: lock discipline (RL1xx), "
            "Storage.version discipline (RL2xx), determinism (RL3xx), "
            "serving join timeouts (RL4xx), plus the docs suite."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--suite",
        choices=("code", "docs", "all"),
        default="code",
        help="which checks to run (default: code)",
    )
    parser.add_argument("--baseline", help="baseline JSON for the code suite")
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write current code-suite findings to --baseline (entries get "
            "empty justifications you must fill in) and exit"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default: text)",
    )
    parser.add_argument(
        "--report", help="also write the JSON report to this path"
    )
    parser.add_argument(
        "--root",
        default=os.getcwd(),
        help="repo root for relative paths (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    return parser


def _merge(into: Report, other: Report) -> None:
    into.findings.extend(other.findings)
    into.errors.extend(other.errors)
    into.suppressed += other.suppressed
    into.baselined += other.baselined
    into.files_checked += other.files_checked


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.summary}")
        return 0

    root = os.path.abspath(args.root)
    report = Report(suite=args.suite)

    if args.suite in ("code", "all"):
        paths = [
            p if os.path.isabs(p) else os.path.join(root, p)
            for p in args.paths
        ]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            print(f"error: no such path: {missing[0]}", file=sys.stderr)
            return 2
        if args.write_baseline:
            if not args.baseline:
                print(
                    "error: --write-baseline requires --baseline",
                    file=sys.stderr,
                )
                return 2
            fresh = run_code_suite(paths, root, baseline=None)
            write_baseline(args.baseline, fresh.findings)
            print(
                f"wrote {len(fresh.findings)} entries to {args.baseline} "
                "(fill in the justifications)"
            )
            return 0
        baseline = None
        if args.baseline:
            try:
                baseline = load_baseline(args.baseline)
            except (ValueError, OSError, KeyError) as exc:
                print(f"error: bad baseline: {exc}", file=sys.stderr)
                return 2
        _merge(report, run_code_suite(paths, root, baseline=baseline))

    if args.suite in ("docs", "all"):
        _merge(report, run_docs_suite(root))

    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.render_json())
            fh.write("\n")
    return 0 if report.ok else 1
