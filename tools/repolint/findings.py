"""Finding records and reporters for the repo-lint engine.

A :class:`Finding` is one rule violation at one source location.  Findings
are identity-keyed on ``(rule, path, symbol, message)`` -- deliberately
*not* on the line number, so two JSON reports can be matched finding for
finding across edits that shift code up or down a file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    ``symbol`` is the dotted in-file scope (``Class.method`` or a bare
    function name; empty at module level), which keys a finding robustly
    against line drift.
    """

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""
    col: int = 0

    @property
    def key(self) -> str:
        """Stable identity across line drift (the JSON report's ``key``)."""
        raw = f"{self.rule}|{self.path}|{self.symbol}|{self.message}"
        return hashlib.sha1(raw.encode()).hexdigest()[:16]

    def render(self) -> str:
        """One-line human-readable form (``path:line: RLxxx message``)."""
        where = f"{self.path}:{self.line}"
        scope = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule} {self.message}{scope}"


@dataclass
class Report:
    """The result of one engine run, renderable as text or JSON."""

    suite: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run is clean (no live findings, no engine errors)."""
        return not self.findings and not self.errors

    def to_json_dict(self) -> dict:
        """JSON-serializable report (the CI artifact shape)."""
        return {
            "suite": self.suite,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "errors": list(self.errors),
            "findings": [
                {**asdict(f), "key": f.key} for f in self.findings
            ],
        }

    def render_text(self) -> str:
        """Human-readable multi-line report."""
        lines = [f.render() for f in sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule)
        )]
        lines.extend(f"error: {e}" for e in self.errors)
        lines.append(
            f"repolint[{self.suite}]: {len(self.findings)} finding(s) in "
            f"{self.files_checked} file(s) "
            f"({self.suppressed} suppressed)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        """The JSON report as a string."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)
