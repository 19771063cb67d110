"""Repo-level pytest config: make src-layout imports work uninstalled.

Also the install point for opt-in line coverage (``REPRO_COV=1``), which
must activate *before* any test module is imported, so it happens here at
collection start rather than in a fixture: it installs the zero-dependency
``tools.covlite`` tracer over ``src/`` and writes a
``coverage.py``-compatible ``coverage.json`` at session end, feeding the
``tools.check_coverage`` ratchet on hosts without ``pytest-cov``.
"""

import os
import sys

_REPO_ROOT = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, _REPO_ROOT)  # for `import tools`

_COV_ENABLED = os.environ.get("REPRO_COV") == "1"
if _COV_ENABLED:
    from tools import covlite

    covlite.install(os.path.join(_REPO_ROOT, "src"))


def pytest_report_header(config):
    """Say in the pytest header when covlite traces the run."""
    if _COV_ENABLED:
        return ["repro covlite: tracing src/ -> coverage.json"]
    return None


def pytest_sessionfinish(session, exitstatus):
    """Flush the covlite report once the run (and its workers) are done."""
    if _COV_ENABLED:
        covlite.uninstall()
        covlite.report(
            os.path.join(_REPO_ROOT, "src"),
            os.path.join(_REPO_ROOT, "coverage.json"),
            _REPO_ROOT,
        )
