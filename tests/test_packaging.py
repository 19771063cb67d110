"""The distribution's version has one source: ``repro.__version__``."""

import os

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")


def test_pyproject_version_is_read_from_the_package():
    with open(PYPROJECT, "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"], "a literal version is back"
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "repro.__version__"
    assert repro.__version__.count(".") == 2
