"""``tools.reach`` over a small fixture package.

The lines are collected by ``tools.covlite`` in a subprocess: its tracer
replaces this process's trace function, which a coverage run owns.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from tools import reach

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIXTURE = '''\
def called():
    return 1


def never():
    return 2


def kept():
    return 3


class Box:
    def method(self):
        return 4
'''

# The shapes of ``def`` the pipeline's code uses, in a subpackage; only
# ``caller`` is called.
EDGES = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
def decorated():
    return 1


def signature(
    x=len("evaluated at import"),
):
    return x


def outer():
    def inner():
        return 2
    return 3


async def coro():
    return 4


class Box:
    @property
    def prop(self):
        return 5

    class Inner:
        def deep(self):
            return 6


def caller():
    decorated()
    outer()
    return Box().prop
'''

BLIND = '''\
def one_liner(): return 1


def docstring_only():
    """Nothing but a docstring."""


def caller():
    return docstring_only()
'''

COLLECT = textwrap.dedent(
    """
    import importlib, json, sys
    from tools import reach
    root, module, function = sys.argv[1:]
    sys.path.insert(0, root)
    entry = ("import and call", lambda: getattr(importlib.import_module(module), function)())
    executed = reach.collect(root, [entry])
    print(json.dumps({path: sorted(lines) for path, lines in executed.items()}))
    """
)


def _collect(tmp_path_factory, files, module, function):
    """``(root, executed lines)`` after importing ``module`` and calling ``function``."""
    root = str(tmp_path_factory.mktemp("reach"))
    for name, source in files.items():
        path = os.path.join(root, *name.split("/"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
    out = subprocess.run(
        [sys.executable, "-c", COLLECT, root, module, function],
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    executed = json.loads(out.splitlines()[-1])
    return root, {path: set(lines) for path, lines in executed.items()}


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """``(root, executed lines)`` after importing ``mod`` and calling ``called``."""
    return _collect(tmp_path_factory, {"mod.py": FIXTURE}, "mod", "called")


@pytest.fixture(scope="module")
def edges(tmp_path_factory):
    """``(root, executed lines)`` after importing ``pkg.edges`` and calling ``caller``."""
    files = {"pkg/__init__.py": "", "pkg/edges.py": EDGES}
    return _collect(tmp_path_factory, files, "pkg.edges", "caller")


@pytest.fixture(scope="module")
def blind(tmp_path_factory):
    """``(root, executed lines)`` after importing ``blind`` and calling ``caller``."""
    return _collect(tmp_path_factory, {"blind.py": BLIND}, "blind", "caller")


def _missed(root, executed):
    return {function.key for function in reach.unreached(root, executed)}


def test_every_def_is_found(fixture):
    root, _ = fixture
    keys = {function.key for function in reach.functions(root)}
    assert keys == {"mod.py:called", "mod.py:never", "mod.py:kept", "mod.py:Box.method"}


def test_an_unreached_function_is_reported(fixture, capsys):
    root, executed = fixture
    assert reach.report(root, executed, {"mod.py:kept": ("d", "listed")}) == 1
    out = capsys.readouterr().out
    assert "mod.py:never  2 lines  (-) NO REASON" in out
    assert "mod.py:Box.method" in out
    assert "mod.py:called " not in out


def test_a_listed_function_is_not_an_error(fixture, capsys):
    root, executed = fixture
    kept = {key: ("d", "listed") for key in _missed(root, executed)}
    assert reach.report(root, executed, kept) == 0
    assert "NO REASON" not in capsys.readouterr().out


def test_a_def_line_run_at_import_does_not_count(fixture):
    root, executed = fixture
    lines = executed[os.path.join(root, "mod.py")]
    assert 5 in lines  # ``def never():`` ran when mod was imported
    assert 6 not in lines
    assert _missed(root, executed) == {"mod.py:never", "mod.py:kept", "mod.py:Box.method"}


def test_a_stale_entry_fails(fixture, capsys):
    root, executed = fixture
    kept = {key: ("d", "listed") for key in _missed(root, executed)}
    kept["mod.py:gone"] = ("a", "deleted since")
    assert reach.report(root, executed, kept) == 1
    assert "stale entry mod.py:gone" in capsys.readouterr().out


def test_a_listed_function_that_runs_is_not_an_error(fixture):
    root, executed = fixture
    kept = {key: ("b", "listed") for key in _missed(root, executed) | {"mod.py:called"}}
    assert reach.report(root, executed, kept) == 0


def test_an_unknown_reason_fails(fixture):
    root, executed = fixture
    kept = {key: ("z", "listed") for key in _missed(root, executed)}
    assert reach.report(root, executed, kept) == 1


def test_every_kept_entry_carries_a_known_reason():
    assert {reason for reason, _ in reach.KEPT.values()} <= set(reach.REASONS)
    known = {function.key for function in reach.functions(reach.SOURCE)}
    assert sorted(set(reach.KEPT) - known) == []


def test_keys_name_the_subpackage_and_the_qualname(edges):
    root, _ = edges
    keys = {function.key for function in reach.functions(root)}
    assert keys == {
        "pkg/edges.py:deco",
        "pkg/edges.py:deco.wrapper",
        "pkg/edges.py:decorated",
        "pkg/edges.py:signature",
        "pkg/edges.py:outer",
        "pkg/edges.py:outer.inner",
        "pkg/edges.py:coro",
        "pkg/edges.py:Box.prop",
        "pkg/edges.py:Box.Inner.deep",
        "pkg/edges.py:caller",
    }


def test_a_decorated_function_is_reached_through_its_wrapper(edges):
    root, executed = edges
    missed = _missed(root, executed)
    assert {"pkg/edges.py:decorated", "pkg/edges.py:deco.wrapper"}.isdisjoint(missed)


def test_defaults_evaluated_at_import_do_not_count(edges):
    root, executed = edges
    lines = executed[os.path.join(root, "pkg", "edges.py")]
    assert 17 in lines  # the default argument ran when the module was imported
    assert "pkg/edges.py:signature" in _missed(root, executed)


def test_a_nested_function_is_apart_from_its_outer_function(edges):
    root, executed = edges
    missed = _missed(root, executed)
    assert "pkg/edges.py:outer" not in missed
    assert "pkg/edges.py:outer.inner" in missed


def test_methods_properties_and_coroutines(edges):
    root, executed = edges
    missed = _missed(root, executed)
    assert "pkg/edges.py:Box.prop" not in missed  # read as an attribute
    assert {"pkg/edges.py:Box.Inner.deep", "pkg/edges.py:coro"} <= missed


def test_the_edges_report_lists_exactly_what_never_ran(edges, capsys):
    root, executed = edges
    assert reach.report(root, executed, {}) == 1
    out = capsys.readouterr().out
    assert "4 of 10 functions" in out and "4 without a reason, 0 stale entries" in out


def test_a_body_on_the_def_line_cannot_be_measured(blind, capsys):
    """The import and a call both run ``one_liner``'s one line: the check
    fails rather than call it reached on no evidence."""
    root, executed = blind
    assert 1 in executed[os.path.join(root, "blind.py")]  # yet one_liner never ran
    assert reach.report(root, executed, {"blind.py:one_liner": ("d", "listed")}) == 1
    out = capsys.readouterr().out
    assert "blind.py:one_liner: its body shares its def line" in out
    assert "blind.py:one_liner  " not in out


def test_a_called_docstring_only_function_is_never_called_unreached(blind, capsys):
    """Whether a docstring alone compiles to a line of its own differs between
    Python versions: the function is either unmeasurable or reached."""
    root, executed = blind
    reach.report(root, executed, {})
    out = capsys.readouterr().out
    assert "blind.py:docstring_only  " not in out  # not listed as unreached
    body = {f.key: f.body for f in reach.functions(root)}["blind.py:docstring_only"]
    assert ("blind.py:docstring_only: its body shares its def line" in out) == (not body)


def test_every_function_under_src_repro_can_be_measured():
    assert [f.key for f in reach.functions(reach.SOURCE) if not f.body] == []
