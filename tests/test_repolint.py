"""Self-tests for the repolint static analyzer.

Fixture-driven: every rule gets at least one violating snippet (asserted
by finding ID *and* line) and one clean snippet, so a rule regression
shows up as a missed or spurious fixture finding rather than as CI noise
on real source.  Also covers suppression hygiene (RL001/RL002), the CLI
(with no baseline: any finding fails), the docs suite, and regression
tests for the source fixes the first triage of ``src/repro`` produced.
"""

from __future__ import annotations

import json
import os
import textwrap

import numpy as np
import pytest

from repro.nn import Embedding, Linear, SwiGLUMLP
from repro.tensor.random import default_rng
from tools.repolint.cli import main as repolint_main
from tools.repolint.docs import run_docs_suite
from tools.repolint.engine import lint_source, run_code_suite
from tools.repolint.findings import Finding

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint(source: str, path: str = "src/repro/example.py"):
    """Lint a dedented snippet; returns (live, suppressed, meta)."""
    return lint_source(path, textwrap.dedent(source))


def ids_and_lines(findings) -> list[tuple[str, int]]:
    return [(f.rule, f.line) for f in findings]


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


class TestRetiredThreadRules:
    """RL101 / RL102 (lock discipline) and RL402 (timeout-less join in the
    serving layer) are retired with the last lock and thread in
    ``src/repro``: a disable naming one of them is a malformed
    suppression."""

    @pytest.mark.parametrize("rule", ["RL101", "RL102", "RL402"])
    def test_disable_names_an_unknown_rule(self, rule):
        _, _, meta = lint(
            f"""\
            def walk(names):
                for name in sorted(names):  # repolint: disable={rule} retired
                    print(name)
            """
        )
        assert [(f.rule, f.line) for f in meta] == [("RL001", 2)]


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


class TestNoBaseline:
    """Every finding fails the run; there is no file of tolerated ones."""

    SOURCE = textwrap.dedent(
        """\
        def walk(names):
            for name in set(names):
                print(name)
        """
    )

    def test_a_finding_fails_the_run(self, tmp_path):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "mod.py").write_text(self.SOURCE)
        report = run_code_suite([str(pkg)], str(tmp_path))
        assert [f.rule for f in report.findings] == ["RL304"]
        assert not report.ok
        assert "baselined" not in report.to_json_dict()

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
    def test_baseline_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            repolint_main(["src", flag, "--root", REPO_ROOT])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
        for rule_id in ("RL201", "RL301"):
            assert rule_id in out
        for rule_id in ("RL101", "RL102", "RL401", "RL402"):
            assert rule_id not in out

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
                "--root",
                REPO_ROOT,
            ]
        )
        assert code == 0, capsys.readouterr().out


class TestTriageRegressions:
    """Regression tests for the fixes the first src/repro triage produced."""

    def test_marshal_registry_register_and_find(self):
        from repro.core.marshal import MarshalRegistry, OffloadEntry
        from repro.tensor.tensor import Tensor

        registry = MarshalRegistry("storage-id")
        tensors = [
            Tensor.from_numpy(np.full((4,), float(i), dtype=np.float32))
            for i in range(16)
        ]
        entries = {id(t): OffloadEntry(t) for t in tensors}
        for tensor in tensors:
            registry.register(tensor, entries[id(tensor)])
            entry, _ = registry.find(tensor, 0)
            assert entry is entries[id(tensor)]
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
        report = run_code_suite([os.path.join(REPO_ROOT, "src")], REPO_ROOT)
        assert report.ok, report.render_text()
        assert report.findings == []
