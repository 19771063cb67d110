"""Per-line suppression comments (``# repolint: disable=RL304 <reason>``).

Suppressions are the analyzer's pressure valve for *intentional* rule
departures (an order-free set walk, a seeded benchmark generator).
Every disable must name the rule(s) it silences and carry a non-empty
reason; a malformed disable is itself a finding (RL001), and a disable
that silences nothing is dead weight the triage should remove (RL002).

Two scopes:

- ``# repolint: disable=RL201,RL304 <reason>`` -- trailing or standalone
  comment; applies to findings on that source line (a standalone comment
  line also covers the line directly below it, so long statements can
  carry the disable above them).
- ``# repolint: disable-file=RL301 <reason>`` -- anywhere in the file;
  applies to every finding of that rule in the file.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from tools.repolint.findings import Finding

_DISABLE_RE = re.compile(
    r"#\s*repolint:\s*(?P<scope>disable|disable-file)=(?P<rules>[A-Z0-9,]+)"
    r"(?P<reason>[^#\n]*)"
)


def _comment_lines(source: str) -> dict[int, str]:
    """Line -> comment text for every *real* comment token.

    Tokenizing (instead of scanning raw lines) keeps ``disable=`` prose
    inside docstrings -- this module's own docstring included -- from
    parsing as a live suppression.  On tokenize errors (the engine
    reports the syntax error separately) fall back to raw lines so a
    broken file still surfaces its suppressions.
    """
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return dict(enumerate(source.splitlines(), start=1))
    return comments


@dataclass
class Suppression:
    """One parsed disable comment."""

    line: int
    rules: tuple[str, ...]
    reason: str
    file_scope: bool
    used: bool = False


@dataclass
class SuppressionSet:
    """All disable comments of one file, with use tracking."""

    path: str
    suppressions: list[Suppression] = field(default_factory=list)
    malformed: list[Finding] = field(default_factory=list)

    def matches(self, rule: str, line: int) -> Suppression | None:
        """The suppression covering ``rule`` at ``line``, if any."""
        for supp in self.suppressions:
            if rule not in supp.rules:
                continue
            if supp.file_scope or supp.line in (line, line - 1):
                return supp
        return None

    def unused(self) -> list[Suppression]:
        """Suppressions that silenced nothing this run."""
        return [s for s in self.suppressions if not s.used]


def parse_suppressions(
    path: str, source: str, known_rules: frozenset[str]
) -> SuppressionSet:
    """Extract every disable comment in ``source``.

    Unknown rule ids and empty reasons are reported as RL001 findings
    rather than silently accepted -- a typo'd disable must not look like
    a working one.
    """
    result = SuppressionSet(path=path)
    for lineno, text in sorted(_comment_lines(source).items()):
        match = _DISABLE_RE.search(text)
        if match is None:
            continue
        rules = tuple(r for r in match.group("rules").split(",") if r)
        reason = match.group("reason").strip()
        unknown = [r for r in rules if r not in known_rules]
        if unknown:
            result.malformed.append(
                Finding(
                    rule="RL001",
                    path=path,
                    line=lineno,
                    message=(
                        f"disable names unknown rule(s) {', '.join(unknown)}"
                    ),
                )
            )
            continue
        if not reason:
            result.malformed.append(
                Finding(
                    rule="RL001",
                    path=path,
                    line=lineno,
                    message=(
                        "disable comment must carry a reason: "
                        "# repolint: disable=RLxxx <why this is intentional>"
                    ),
                )
            )
            continue
        result.suppressions.append(
            Suppression(
                line=lineno,
                rules=rules,
                reason=reason,
                file_scope=match.group("scope") == "disable-file",
            )
        )
    return result
