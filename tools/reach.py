"""Which functions of ``src/repro`` the paper's pipeline never calls.

    python -m tools.reach

Runs the pipeline's entry points (:data:`ENTRY_POINTS`) in this process
under :mod:`tools.covlite`'s line collector, then prints every function
of ``src/repro`` none of them reached, with its file and line count.  A
function is *reached* when any statement of its body runs: its ``def``
line, decorators and default arguments run at import and do not count.
So a function whose body shares its ``def`` line (a one-liner, or a
docstring alone) cannot be measured: the check fails on it.

Every unreached function must be listed in :data:`KEPT` with a reason
from :data:`REASONS`.  Exit status is 1 when an unreached function has no
listed reason, when a listed function no longer exists (a stale entry),
or when a function cannot be measured.  A listed function that *is*
reached is not an error: whether an error path runs depends on the run's
inputs and timing.

The e2e workloads run through ``benchmarks/e2e/run.py``'s ``main`` in this
process, one ``--workload`` at a time: its default (``all``) starts each
workload in a subprocess, which a tracer in this process does not see.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import sys
import tempfile
from dataclasses import dataclass

from tools import covlite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "repro")
E2E = os.path.join(ROOT, "benchmarks", "e2e")
EXAMPLES = os.path.join(ROOT, "examples")
E2E_WORKLOADS = ("finetune_mus", "finetune_offload", "compress_sweep", "deploy_serve_eval")

REASONS = {
    "a": "a planned input of a numbered ROADMAP item",
    "b": "an error path: safety code, kept whatever its reach",
    "c": "a reference a test compares against, or an op such a reference is built from",
    "d": "a protocol or interface method",
    "e": "a test-harness seam",
}


def _keep(reason: str, note: str, *keys: str) -> dict[str, tuple[str, str]]:
    return {key: (reason, note) for key in keys}


# ``"<path under src/repro>:<qualname>" -> (reason letter, note)``.
KEPT: dict[str, tuple[str, str]] = {
    **_keep(
        "a", "ROADMAP items 3(a) and 14: held-out perplexity",
        "evalsuite/perplexity.py:perplexity",
        "nn/loss.py:token_log_likelihoods",
    ),
    **_keep(
        "a", "ROADMAP item 5(b): the artifact is saved and loaded through these",
        "tensor/serialization.py:save_state",
        "tensor/serialization.py:load_state",
        "tensor/serialization.py:_sidecar",
    ),
    **_keep(
        "a", "ROADMAP item 5(b) deletes serving/palette.py whole",
        "serving/palette.py:TileCache.resident_bytes",
        "serving/palette.py:TileCache.__len__",
    ),
    **_keep(
        "b", "a failed batch or a missed deadline; tier-1 tests reach it, no chaos cell does",
        "serving/server.py:PaletteServer._fail_batch",
        "serving/batcher.py:ContinuousBatcher.abort_all",
        "serving/batcher.py:ContinuousBatcher._abort_deadline",
        "serving/queue.py:StepFailed.__init__",
        "serving/queue.py:ServerRequest.fail",
        "serving/stats.py:ServerStats.note_rejected_admission",
        "serving/stats.py:ServerStats.note_rejected_deadline",
        "serving/stats.py:ServerStats.note_aborted_deadline",
        "serving/stats.py:ServerStats.note_step_failure",
    ),
    **_keep(
        "c", "TestHistogramInit and tests/oracles.py compare the cold init with it",
        "core/dkm.py:init_centroids_quantile",
    ),
    **_keep(
        "c", "tests/oracles.py builds rope_composite / rms_norm_composite from it",
        "tensor/tensor.py:Tensor.__getitem__",
        "tensor/tensor.py:Tensor.unsqueeze",
        "tensor/tensor.py:Tensor.mean",
        "tensor/tensor.py:Tensor.sqrt",
        "tensor/tensor.py:Tensor.__truediv__",
        "tensor/ops/__init__.py:slice_",
        "tensor/ops/__init__.py:cat",
        "tensor/ops/__init__.py:mean",
        "tensor/ops/__init__.py:sqrt",
        "tensor/ops/__init__.py:div",
        "tensor/ops/shape.py:Slice.forward",
        "tensor/ops/shape.py:Slice.backward",
        "tensor/ops/shape.py:_normalize_key",
        "tensor/ops/shape.py:Cat.forward",
        "tensor/ops/shape.py:Cat.backward",
        "tensor/ops/reduce.py:Mean.forward",
        "tensor/ops/reduce.py:Mean.backward",
        "tensor/ops/arithmetic.py:Sqrt.forward",
        "tensor/ops/arithmetic.py:Sqrt.backward",
        "tensor/ops/arithmetic.py:Div.forward",
        "tensor/ops/arithmetic.py:Div.backward",
    ),
    **_keep(
        "c", "tests/oracles.py's attention_composite merges its heads by reshaping a permuted view",
        "tensor/ops/shape.py:Contiguous.forward",
        "tensor/ops/shape.py:Contiguous.backward",
    ),
    **_keep(
        "d", "repr / str / len / container protocol",
        "baselines/llm_qat.py:QATLinear.__repr__",
        "core/compressor.py:ClusteredLinear.__repr__",
        "core/fastpath.py:FastPathStats.__repr__",
        "core/marshal.py:MarshalRegistry.__len__",
        "core/palettize.py:PalettizedTensor.__repr__",
        "distributed/collective.py:ShardedTensor.__repr__",
        "distributed/learner.py:LearnerGroup.__len__",
        "distributed/learner.py:LearnerGroup.__repr__",
        "evalsuite/harness.py:SuiteResult.__str__",
        "memory/tracker.py:MemoryTracker.__repr__",
        "nn/linear.py:Linear.__repr__",
        "nn/linear.py:Embedding.__repr__",
        "nn/module.py:Module.__repr__",
        "nn/module.py:ModuleList.__len__",
        "nn/module.py:ModuleList.__getitem__",
        "serving/faults.py:FaultLog.__len__",
        "serving/queue.py:RequestQueue.__len__",
        "serving/queue.py:ServerRequest.__repr__",
        "tensor/autograd.py:Node.__repr__",
        "tensor/device.py:Device.__repr__",
        "tensor/storage.py:Storage.__repr__",
        "tensor/tensor.py:Tensor.__repr__",
        "tensor/tensor.py:Tensor.__len__",
    ),
    **_keep(
        "d", "the server's public API: submit() and result() in one call",
        "serving/server.py:PaletteServer.generate",
    ),
    **_keep(
        "d", "context-manager protocol",
        "serving/server.py:PaletteServer.__enter__",
        "serving/server.py:PaletteServer.__exit__",
    ),
    **_keep("d", "hash protocol: pairs with Device.__eq__", "tensor/device.py:Device.__hash__"),
    **_keep("d", "pickling reads it", "tensor/dtype.py:DType.__reduce__"),
    **_keep(
        "d", "abstract stub every subclass overrides",
        "tensor/autograd.py:Function.forward",
        "tensor/autograd.py:Function.backward",
        "nn/module.py:Module.forward",
        "optim/optimizer.py:Optimizer.step",
    ),
    **_keep(
        "d", "the backward of a forward the pipeline reaches",
        "tensor/ops/movement.py:ToDevice.backward",
    ),
    **_keep(
        "e", "test-harness seam: hundreds of test call sites, tests/gradcheck.py among them",
        "tensor/tensor.py:tensor",
    ),
    **_keep("e", "test-harness seam", "core/uniquify.py:reset_uniquify_call_count"),
}


@dataclass(frozen=True)
class Function:
    """One ``def`` under the scanned root."""

    path: str  # relative to the scanned root, ``/``-separated
    qualname: str  # ``Class.method``; a nested def is ``outer.inner``
    body: frozenset  # statement lines of the body, never the def line: empty for a one-liner
    size: int  # source lines, def through the last body line

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def functions(root: str) -> list[Function]:
    """Every function and method defined in a ``.py`` file under ``root``."""
    found: list[Function] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            statements = covlite.statement_lines(path)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            found += _defs(tree, "", rel, statements)
    return found


def _defs(node: ast.AST, prefix: str, rel: str, statements: set) -> list[Function]:
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = child.body[0].lineno
            found.append(
                Function(
                    rel,
                    prefix + child.name,
                    frozenset(
                        n
                        for n in statements
                        if first <= n <= child.end_lineno and n != child.lineno
                    ),
                    child.end_lineno - child.lineno + 1,
                )
            )
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _defs(child, prefix + child.name + ".", rel, statements)
        else:
            found += _defs(child, prefix, rel, statements)
    return found


def unreached(root: str, executed: dict) -> list[Function]:
    """The functions under ``root`` none of whose body statements ran.

    ``executed`` maps absolute file paths to executed line numbers, as
    :mod:`tools.covlite` collects them.
    """
    root = os.path.abspath(root)
    return [
        function
        for function in functions(root)
        if not function.body & executed.get(os.path.join(root, *function.path.split("/")), set())
    ]


def collect(root: str, entry_points) -> dict:
    """Run each ``(label, callable)`` under covlite; return the executed lines."""
    covlite.install(root)
    try:
        for label, entry in entry_points:
            print(f"reach: running {label}", flush=True)
            entry()
    finally:
        covlite.uninstall()
    return {path: set(lines) for path, lines in covlite._executed.items()}


def _bench(*argv: str):
    def run() -> None:
        from repro.bench.__main__ import main

        with tempfile.TemporaryDirectory() as out:
            if main([*argv, "--out", out]) != 0:
                raise SystemExit(f"reach: repro.bench {' '.join(argv)} failed its gates")

    return run


def _e2e(workload: str, trace: int):
    def run() -> None:
        if E2E not in sys.path:
            sys.path.insert(0, E2E)
        import run as e2e_run

        saved = sys.argv
        sys.argv = ["run.py", "--workload", workload, "--quick", "--trace", str(trace)]
        try:
            if e2e_run.main() != 0:
                raise SystemExit(f"reach: e2e {workload} --trace {trace} failed a check")
        finally:
            sys.argv = saved

    return run


def _example(name: str):
    def run() -> None:
        path = os.path.join(EXAMPLES, f"{name}.py")
        spec = importlib.util.spec_from_file_location(f"example_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()

    return run


ENTRY_POINTS = [
    ("repro.bench all --quick", _bench("all", "--quick")),
    # Quick mode skips GPTQ / AWQ calibration and LLM-QAT.
    ("repro.bench table3", _bench("table3")),
    *[
        (f"e2e {workload} --quick --trace {trace}", _e2e(workload, trace))
        for workload in E2E_WORKLOADS
        for trace in (0, 1)
    ],
    *[
        (f"examples/{name}.py", _example(name))
        for name in sorted(f[:-3] for f in os.listdir(EXAMPLES) if f.endswith(".py"))
    ],
]


def report(root: str, executed: dict, kept: dict) -> int:
    """Print the functions under ``root`` that did not run, and the verdict.

    Returns 1 when one of them has no entry in ``kept``, when an entry of
    ``kept`` names no function or no known reason, or when a function's body
    shares its ``def`` line; 0 otherwise.
    """
    everything = functions(root)
    known = {function.key for function in everything}
    blind = [function for function in everything if not function.body]
    missed = [function for function in unreached(root, executed) if function.body]
    for function in missed:
        reason, note = kept.get(function.key, ("-", "NO REASON"))
        print(f"{function.key}  {function.size} lines  ({reason}) {note}")
    unlisted = [function for function in missed if function.key not in kept]
    bad = sorted(key for key, (reason, _) in kept.items() if reason not in REASONS)
    stale = sorted(key for key in kept if key not in known)
    for key in bad:
        print(f"reach: {key}: unknown reason {kept[key][0]!r}")
    for key in stale:
        print(f"reach: stale entry {key}: no such function")
    for function in blind:
        print(
            f"reach: {function.key}: its body shares its def line, so a call cannot "
            "be told from the import; give the body a line of its own"
        )
    print(
        f"reach: {len(missed)} of {len(known)} functions under {os.path.relpath(root)} unreached "
        f"({sum(f.size for f in missed)} lines), {len(unlisted)} without a reason, "
        f"{len(stale)} stale entries"
    )
    return 1 if unlisted or bad or stale or blind else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reach", description=__doc__.split("\n\n")[0]
    )
    parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return report(SOURCE, collect(SOURCE, ENTRY_POINTS), KEPT)


if __name__ == "__main__":
    raise SystemExit(main())
