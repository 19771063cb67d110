"""Rule registry for the repo-lint engine.

``ALL_RULES`` is the ordered catalog; ``KNOWN_RULE_IDS`` additionally
includes the meta rules the engine itself emits (RL001 malformed
suppression, RL002 unused suppression) so disables can reference them.
"""

from __future__ import annotations

from tools.repolint.rules.base import FileContext, Rule
from tools.repolint.rules.determinism import (
    DefaultGeneratorRule,
    KernelClockRule,
    ModuleLevelRandomRule,
    SetIterationRule,
)
from tools.repolint.rules.lifecycle import JoinTimeoutRule
from tools.repolint.rules.locks import LockDisciplineRule, LockHelperCallRule
from tools.repolint.rules.versions import CopytoVersionRule, VersionBumpRule

ALL_RULES: tuple[Rule, ...] = (
    LockDisciplineRule(),
    LockHelperCallRule(),
    VersionBumpRule(),
    CopytoVersionRule(),
    ModuleLevelRandomRule(),
    DefaultGeneratorRule(),
    KernelClockRule(),
    SetIterationRule(),
    JoinTimeoutRule(),
)

META_RULE_IDS = ("RL001", "RL002")

KNOWN_RULE_IDS = frozenset(
    [rule.id for rule in ALL_RULES] + list(META_RULE_IDS)
)

__all__ = [
    "ALL_RULES",
    "KNOWN_RULE_IDS",
    "META_RULE_IDS",
    "FileContext",
    "Rule",
]
