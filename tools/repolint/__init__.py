"""repro-lint: AST-based invariant analyzer for this repository.

Two repo-specific rule families, each encoding an invariant that a
shipped bug once violated dynamically:

- **RL2xx version discipline** -- in-place buffer writes reach
  ``Storage.bump_version()`` in the same function.
- **RL3xx determinism** -- no import-time entropy, ad-hoc default
  generators, kernel wall-clock reads, or unordered-set iteration.

Plus a documentation suite (``--suite docs``).  The RL1xx lock-discipline
and RL4xx join-timeout rules are retired: ``src/repro`` holds no lock and
starts no thread.
"""

from tools.repolint.engine import lint_source, run_code_suite
from tools.repolint.findings import Finding, Report

__all__ = ["Finding", "Report", "lint_source", "run_code_suite"]
