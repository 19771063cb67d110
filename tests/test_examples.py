"""The example scripts stay runnable against the current API.

Every ``examples/*.py`` is imported (each keeps its work behind
``if __name__ == "__main__"``), so a renamed or deleted import fails here
by file name; ``baseline_comparison`` is short enough to run whole.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    assert callable(_load(path).main)


def test_baseline_comparison_runs(capsys):
    _load(next(p for p in EXAMPLES if p.stem == "baseline_comparison")).main()
    out = capsys.readouterr().out
    assert "3-bit compression" in out and "4-bit compression" in out
    assert "DKM clustering (hard)" in out
