"""Self-tests for the repolint static analyzer.

Fixture-driven: every rule gets at least one violating snippet (asserted
by finding ID *and* line) and one clean snippet, so a rule regression
shows up as a missed or spurious fixture finding rather than as CI noise
on real source.  Also covers suppression hygiene (RL001/RL002), baseline
round-trips, the CLI, the docs suite, and regression tests for the
source fixes the first triage of ``src/repro`` produced.
"""

from __future__ import annotations

import json
import os
import textwrap
import threading

import numpy as np

from repro.nn import Embedding, Linear, SwiGLUMLP
from repro.tensor.random import default_rng
from tools.repolint.baseline import load_baseline, write_baseline
from tools.repolint.cli import main as repolint_main
from tools.repolint.docs import run_docs_suite
from tools.repolint.engine import lint_source, run_code_suite
from tools.repolint.findings import Finding
from tools.repolint.rules.locks import collect_lock_classes

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint(source: str, path: str = "src/repro/example.py"):
    """Lint a dedented snippet; returns (live, suppressed, meta)."""
    return lint_source(path, textwrap.dedent(source))


def ids_and_lines(findings) -> list[tuple[str, int]]:
    return [(f.rule, f.line) for f in findings]


class TestLockDiscipline:
    VIOLATING = """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def size(self):
                return len(self._items)
        """

    def test_unlocked_access_is_rl101(self):
        live, _, _ = lint(self.VIOLATING)
        assert ids_and_lines(live) == [("RL101", 13)]
        assert live[0].symbol == "Box.size"
        assert "_items" in live[0].message

    def test_locked_access_is_clean(self):
        live, _, _ = lint(
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def size(self):
                    with self._lock:
                        return len(self._items)
            """
        )
        assert live == []

    def test_private_helper_with_locked_callers_is_clean(self):
        live, _, _ = lint(
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def _bump(self):
                    self._items.append(1)

                def add(self):
                    with self._lock:
                        self._bump()
            """
        )
        assert live == []

    def test_unlocked_call_to_guarded_helper_is_rl102(self):
        live, _, _ = lint(
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def _bump(self):
                    self._items.append(1)

                def locked_add(self):
                    with self._lock:
                        self._bump()

                def unlocked_add(self):
                    self._bump()
            """
        )
        assert ("RL102", 16) in ids_and_lines(live)

    def test_condition_over_lock_counts_as_held(self):
        live, _, _ = lint(
            """\
            import threading

            class Q:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self._pending = []

                def wait_nonempty(self):
                    with self._cond:
                        while not self._pending:
                            self._cond.wait()
            """
        )
        assert live == []

    def test_lockless_class_is_not_modeled(self):
        live, _, _ = lint(
            """\
            class Plain:
                def __init__(self):
                    self._items = []

                def size(self):
                    return len(self._items)
            """
        )
        assert live == []

    def test_disable_on_init_line_excludes_attribute(self):
        live, suppressed, meta = lint(
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0  # repolint: disable=RL101 read-only after init
                    self._items = []

                def hits(self):
                    return self._hits
            """
        )
        assert live == []
        assert meta == []

    def test_collect_lock_classes_model(self):
        tree_src = textwrap.dedent(self.VIOLATING)
        import ast

        models = collect_lock_classes(ast.parse(tree_src), tree_src)
        assert len(models) == 1
        assert models[0].name == "Box"
        assert models[0].lock_attrs == frozenset({"_lock"})
        assert models[0].guarded == frozenset({"_items"})


class TestVersionDiscipline:
    def test_inplace_write_without_bump_is_rl201(self):
        live, _, _ = lint(
            """\
            def scale(t, factor):
                t._np()[:] = t._np() * factor
            """
        )
        assert ids_and_lines(live) == [("RL201", 2)]

    def test_inplace_write_with_bump_is_clean(self):
        live, _, _ = lint(
            """\
            def scale(t, factor):
                t._np()[:] = t._np() * factor
                t.storage.bump_version()
            """
        )
        assert live == []

    def test_tainted_alias_is_tracked(self):
        live, _, _ = lint(
            """\
            def zero(t):
                buf = t._np()
                buf[:] = 0.0
            """
        )
        assert ids_and_lines(live) == [("RL201", 3)]

    def test_copyto_without_bump_is_rl202(self):
        live, _, _ = lint(
            """\
            import numpy as np

            def overwrite(t, values):
                np.copyto(t._np(), values)
            """
        )
        assert ids_and_lines(live) == [("RL202", 4)]

    def test_storage_module_is_exempt(self):
        live, _, _ = lint(
            """\
            def raw_write(t):
                t._np()[:] = 0.0
            """,
            path="src/repro/tensor/storage.py",
        )
        assert live == []


class TestDeterminism:
    def test_module_level_random_is_rl301(self):
        live, _, _ = lint(
            """\
            import numpy as np

            SHUFFLE = np.random.default_rng(0)
            """
        )
        assert ids_and_lines(live) == [("RL301", 3)]

    def test_random_home_module_is_exempt(self):
        live, _, _ = lint(
            """\
            import numpy as np

            _default_rng = np.random.default_rng(0)
            """,
            path="src/repro/tensor/random.py",
        )
        assert live == []

    def test_or_fallback_generator_is_rl302(self):
        live, _, _ = lint(
            """\
            import numpy as np

            def init(rng=None):
                rng = rng or np.random.default_rng(0)
                return rng
            """
        )
        assert ids_and_lines(live) == [("RL302", 4)]

    def test_seeded_local_generator_is_clean(self):
        live, _, _ = lint(
            """\
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                return rng
            """
        )
        assert live == []

    def test_clock_in_kernel_module_is_rl303(self):
        live, _, _ = lint(
            """\
            import time

            def stamp():
                return time.time()
            """,
            path="src/repro/core/fastpath.py",
        )
        assert ids_and_lines(live) == [("RL303", 4)]

    def test_decode_step_module_is_a_kernel_module(self):
        live, _, _ = lint(
            """\
            import time

            def stamp():
                return time.time()
            """,
            path="src/repro/llm/decode.py",
        )
        assert ids_and_lines(live) == [("RL303", 4)]

    def test_edkm_kernels_are_kernel_modules(self):
        for module in ("core/edkm.py", "core/uniquify.py"):
            live, _, _ = lint(
                """\
                import time

                def stamp():
                    return time.time()
                """,
                path=f"src/repro/{module}",
            )
            assert ids_and_lines(live) == [("RL303", 4)], module

    def test_clock_outside_kernel_module_is_clean(self):
        live, _, _ = lint(
            """\
            import time

            def stamp():
                return time.time()
            """,
            path="src/repro/serving/server.py",
        )
        assert live == []

    def test_set_iteration_is_rl304(self):
        live, _, _ = lint(
            """\
            def walk(names):
                for name in set(names):
                    print(name)
            """
        )
        assert ids_and_lines(live) == [("RL304", 2)]

    def test_sorted_set_iteration_is_clean(self):
        live, _, _ = lint(
            """\
            def walk(names):
                for name in sorted(set(names)):
                    print(name)
            """
        )
        assert live == []


class TestRetiredResourceLifecycle:
    """RL401 (shm/executor ownership) is retired: nothing under ``src/``
    builds a ``SharedMemory`` block or an executor."""

    def test_bare_local_shm_is_no_finding(self):
        live, _, meta = lint(
            """\
            from multiprocessing import shared_memory

            def probe(name):
                block = shared_memory.SharedMemory(name=name)
                block.close()
            """
        )
        assert live == [] and meta == []

    def test_rl401_disable_names_an_unknown_rule(self):
        _, _, meta = lint(
            """\
            from concurrent.futures import ThreadPoolExecutor

            POOL = ThreadPoolExecutor(max_workers=2)  # repolint: disable=RL401 module-owned
            """
        )
        assert [(f.rule, f.line) for f in meta] == [("RL001", 3)]


class TestJoinTimeout:
    SERVING_PATH = "src/repro/serving/example.py"

    HUNG_JOIN = """\
        class Server:
            def stop(self):
                self._thread.join()
        """

    def test_timeoutless_join_in_serving_is_rl402(self):
        live, _, _ = lint(self.HUNG_JOIN, path=self.SERVING_PATH)
        assert ids_and_lines(live) == [("RL402", 3)]

    def test_join_with_timeout_is_clean(self):
        live, _, _ = lint(
            """\
            class Server:
                def stop(self):
                    self._thread.join(timeout=5.0)
            """,
            path=self.SERVING_PATH,
        )
        assert live == []

    def test_join_with_positional_deadline_is_clean(self):
        live, _, _ = lint(
            """\
            class Server:
                def stop(self):
                    self._thread.join(5.0)
            """,
            path=self.SERVING_PATH,
        )
        assert live == []

    def test_str_join_is_out_of_scope(self):
        live, _, _ = lint(
            """\
            def render(parts):
                return " ".join(parts)
            """,
            path=self.SERVING_PATH,
        )
        assert live == []

    def test_outside_serving_is_out_of_scope(self):
        live, _, _ = lint(self.HUNG_JOIN, path="src/repro/core/example.py")
        assert live == []

    def test_suppressed_with_reason(self):
        live, suppressed, _ = lint(
            """\
            class Server:
                def stop(self):
                    self._thread.join()  # repolint: disable=RL402 scheduler exits on _stop; bounded by test timeout
            """,
            path=self.SERVING_PATH,
        )
        assert live == []
        assert suppressed == 1


class TestSuppressions:
    def test_same_line_disable_suppresses(self):
        live, suppressed, meta = lint(
            """\
            def walk(names):
                for name in set(names):  # repolint: disable=RL304 order-free side effects
                    print(name)
            """
        )
        assert live == []
        assert suppressed == 1
        assert meta == []

    def test_line_above_disable_suppresses(self):
        live, suppressed, meta = lint(
            """\
            def walk(names):
                # repolint: disable=RL304 order-free side effects
                for name in set(names):
                    print(name)
            """
        )
        assert live == []
        assert suppressed == 1
        assert meta == []

    def test_unknown_rule_is_rl001(self):
        _, _, meta = lint(
            """\
            def walk(names):
                for name in set(names):  # repolint: disable=RL999 whatever
                    print(name)
            """
        )
        assert [(f.rule) for f in meta] == ["RL001"]

    def test_missing_reason_is_rl001(self):
        _, _, meta = lint(
            """\
            def walk(names):
                for name in set(names):  # repolint: disable=RL304
                    print(name)
            """
        )
        assert [(f.rule, f.line) for f in meta] == [("RL001", 2)]

    def test_unused_disable_is_rl002(self):
        live, suppressed, meta = lint(
            """\
            def walk(names):
                for name in sorted(names):  # repolint: disable=RL304 just in case
                    print(name)
            """
        )
        assert live == []
        assert [(f.rule, f.line) for f in meta] == [("RL002", 2)]

    def test_disable_file_scope(self):
        live, suppressed, meta = lint(
            """\
            # repolint: disable-file=RL304 ordering is irrelevant in this module

            def walk(names):
                for name in set(names):
                    print(name)

            def walk2(names):
                for name in frozenset(names):
                    print(name)
            """
        )
        assert live == []
        assert suppressed == 2
        assert meta == []


class TestBaseline:
    SOURCE = textwrap.dedent(
        """\
        def walk(names):
            for name in set(names):
                print(name)
        """
    )

    def _tree(self, tmp_path):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "mod.py").write_text(self.SOURCE)
        return tmp_path

    def test_round_trip_grandfathers_findings(self, tmp_path):
        root = self._tree(tmp_path)
        baseline_path = str(tmp_path / "baseline.json")
        first = run_code_suite([str(root / "src")], str(root))
        assert [f.rule for f in first.findings] == ["RL304"]
        write_baseline(baseline_path, first.findings)

        # Unjustified entries refuse to gate anything.
        unjustified = load_baseline(baseline_path)
        blocked = run_code_suite(
            [str(root / "src")], str(root), baseline=unjustified
        )
        assert not blocked.ok
        assert "without justification" in blocked.errors[0]

        # Justified entries grandfather the finding.
        raw = json.loads(open(baseline_path).read())
        for entry in raw["entries"]:
            entry["justification"] = "legacy walker; burn-down tracked"
        with open(baseline_path, "w") as fh:
            json.dump(raw, fh)
        gated = run_code_suite(
            [str(root / "src")], str(root), baseline=load_baseline(baseline_path)
        )
        assert gated.ok
        assert gated.baselined == 1
        assert gated.findings == []

    def test_stale_entry_is_an_error(self, tmp_path):
        root = self._tree(tmp_path)
        baseline_path = str(tmp_path / "baseline.json")
        first = run_code_suite([str(root / "src")], str(root))
        write_baseline(baseline_path, first.findings)
        raw = json.loads(open(baseline_path).read())
        for entry in raw["entries"]:
            entry["justification"] = "x"
        with open(baseline_path, "w") as fh:
            json.dump(raw, fh)
        (root / "src" / "mod.py").write_text(
            "def walk(names):\n    for name in sorted(names):\n        print(name)\n"
        )
        gated = run_code_suite(
            [str(root / "src")], str(root), baseline=load_baseline(baseline_path)
        )
        assert not gated.ok
        assert "stale baseline entry" in gated.errors[0]

    def test_finding_key_is_line_independent(self):
        a = Finding(rule="RL304", path="p.py", line=3, message="m", symbol="s")
        b = Finding(rule="RL304", path="p.py", line=9, message="m", symbol="s")
        c = Finding(rule="RL303", path="p.py", line=3, message="m", symbol="s")
        assert a.key == b.key
        assert a.key != c.key


class TestCli:
    def test_repo_gate_is_clean(self, capsys):
        code = repolint_main(
            [
                "src",
                "--baseline",
                os.path.join(REPO_ROOT, "tools/repolint/baseline.json"),
                "--root",
                REPO_ROOT,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_json_format_and_report_artifact(self, tmp_path, capsys):
        src = tmp_path / "mod.py"
        src.write_text(self.racy_snippet())
        report_path = str(tmp_path / "report.json")
        code = repolint_main(
            [
                str(src),
                "--root",
                str(tmp_path),
                "--format",
                "json",
                "--report",
                report_path,
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [f["rule"] for f in payload["findings"]] == ["RL304"]
        on_disk = json.loads(open(report_path).read())
        assert on_disk == payload

    def test_list_rules(self, capsys):
        assert repolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL101", "RL201", "RL301", "RL402"):
            assert rule_id in out
        assert "RL401" not in out

    def test_missing_path_is_usage_error(self, capsys):
        assert repolint_main(["definitely/not/here"]) == 2

    @staticmethod
    def racy_snippet() -> str:
        return "def walk(names):\n    for name in set(names):\n        print(name)\n"


class TestDocsSuite:
    def test_repo_docs_are_clean(self):
        report = run_docs_suite(REPO_ROOT)
        assert report.ok, report.render_text()

    def test_broken_link_is_doc001(self, tmp_path):
        (tmp_path / "README.md").write_text("see [the plan](docs/missing.md)\n")
        report = run_docs_suite(str(tmp_path))
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            ("DOC001", "README.md", 1)
        ]

    def test_missing_docstrings_are_doc1xx(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "class Widget:\n"
            "    def spin(self):\n"
            "        pass\n"
            "\n"
            "def helper():\n"
            "    pass\n"
        )
        report = run_docs_suite(str(tmp_path))
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["DOC100", "DOC101", "DOC102", "DOC103"]

    def test_cli_all_suite(self, capsys):
        code = repolint_main(
            [
                "src",
                "--suite",
                "all",
                "--baseline",
                os.path.join(REPO_ROOT, "tools/repolint/baseline.json"),
                "--root",
                REPO_ROOT,
            ]
        )
        assert code == 0, capsys.readouterr().out


class TestTriageRegressions:
    """Regression tests for the fixes the first src/repro triage produced."""

    def test_tracker_counters_consistent_under_concurrent_readers(self):
        from repro.memory.tracker import MemoryTracker

        tracker = MemoryTracker("test")
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                # Property reads now lock; repr reads two fields atomically.
                assert tracker.current_bytes >= 0
                repr(tracker)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(2000):
                tracker.allocate(64)
                tracker.release(64)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert tracker.current_bytes == 0
        assert tracker.alloc_count == tracker.free_count == 2000

    def test_marshal_registry_concurrent_register_and_find(self):
        from repro.core.marshal import MarshalRegistry, OffloadEntry
        from repro.tensor.tensor import Tensor

        registry = MarshalRegistry("storage-id")
        tensors = [
            Tensor.from_numpy(np.full((4,), float(i), dtype=np.float32))
            for i in range(16)
        ]
        entries = {id(t): OffloadEntry(t) for t in tensors}
        errors: list[BaseException] = []

        def worker(offset: int):
            try:
                for tensor in tensors[offset::2]:
                    registry.register(tensor, entries[id(tensor)])
                    entry, _, _ = registry.find(tensor, 0)
                    assert entry is entries[id(tensor)]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(offset,)) for offset in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(registry) == 16
        registry.clear()
        assert len(registry) == 0

    def test_default_rng_seeded_is_fresh_and_bit_stable(self):
        a = default_rng(7)
        b = default_rng(7)
        assert a is not b
        assert np.array_equal(a.standard_normal(8), b.standard_normal(8))
        # Matches the idiom the nn modules used to spell inline.
        assert np.array_equal(
            default_rng(0).standard_normal(4),
            np.random.default_rng(0).standard_normal(4),
        )

    def test_default_rng_unseeded_is_the_shared_generator(self):
        assert default_rng() is default_rng()

    def test_module_default_init_bit_identity(self):
        first = Linear(8, 4, rng=None)
        second = Linear(8, 4, rng=None)
        assert np.array_equal(first.weight.numpy(), second.weight.numpy())
        emb_a = Embedding(12, 6)
        emb_b = Embedding(12, 6)
        assert np.array_equal(emb_a.weight.numpy(), emb_b.weight.numpy())
        mlp_a = SwiGLUMLP(8, 16)
        mlp_b = SwiGLUMLP(8, 16)
        assert np.array_equal(
            mlp_a.down_proj.weight.numpy(), mlp_b.down_proj.weight.numpy()
        )

    def test_repolint_gate_matches_ci_invocation(self):
        report = run_code_suite(
            [os.path.join(REPO_ROOT, "src")],
            REPO_ROOT,
            baseline=load_baseline(
                os.path.join(REPO_ROOT, "tools/repolint/baseline.json")
            ),
        )
        assert report.ok, report.render_text()
        assert report.findings == []
