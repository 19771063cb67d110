"""RL4xx -- resource lifecycle in the serving layer.

**RL402** guards the serving layer's shutdown paths: a
``Thread.join()`` with no timeout inside ``src/repro/serving`` can
deadlock ``stop()``/``close()`` forever behind a hung decode step (the
exact seed bug the supervised scheduler fixed), so every zero-argument
``.join()`` there must either pass a deadline or carry a
``# repolint: disable=RL402 <reason>`` stating why blocking forever is
safe.  The zero-argument restriction keeps ``str.join(parts)`` (always
one argument) out of scope.

RL401, the ownership check on ``SharedMemory`` and executor
constructions, is retired: nothing under ``src/`` has built either since
the process compression engine was deleted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repolint.findings import Finding
from tools.repolint.rules.base import FileContext, Rule

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
