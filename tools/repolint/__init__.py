"""repro-lint: AST-based invariant analyzer for this repository.

Four repo-specific rule families, each encoding an invariant that a
shipped bug once violated dynamically:

- **RL1xx lock discipline** -- guarded ``self._*`` state of lock-owning
  classes is only touched under ``with self._lock``.
- **RL2xx version discipline** -- in-place buffer writes reach
  ``Storage.bump_version()`` in the same function.
- **RL3xx determinism** -- no import-time entropy, ad-hoc default
  generators, kernel wall-clock reads, or unordered-set iteration.
- **RL4xx resource lifecycle** -- no timeout-less ``Thread.join()`` in the
  serving layer's shutdown paths.

Plus a documentation suite (``--suite docs``) and a ThreadSanitizer-lite
runtime mode (:mod:`tools.repolint.tsan`) that validates the RL1xx model
against real concurrent executions.
"""

from tools.repolint.engine import lint_source, run_code_suite
from tools.repolint.findings import Finding, Report

__all__ = ["Finding", "Report", "lint_source", "run_code_suite"]
