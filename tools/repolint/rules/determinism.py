"""RL3xx -- determinism discipline.

The engine's correctness bar is "bit-identical to serial" (PAPER.md §2):
every backend, recovery path, and serving path must reproduce the serial
sweep exactly.  Hidden entropy breaks that silently, so:

- **RL301**: no module-level ``np.random.*`` calls -- a module import
  must not consume or create entropy.  ``repro/tensor/random.py`` is the
  one sanctioned construction site for default generators.
- **RL302**: no ad-hoc default-generator construction in function bodies
  (``rng or np.random.default_rng(0)`` fallbacks, seedless
  ``np.random.default_rng()``, or generator defaults in signatures)
  outside ``repro/tensor/random.py`` -- thread a ``Generator`` in, or
  take the fallback from :func:`repro.tensor.random.default_rng`.
- **RL303**: no wall-clock (``time.time``) or stdlib ``random.*`` calls
  in kernel modules (``tensor/ops/``, ``core/fastpath.py``,
  ``core/edkm.py``, ``core/uniquify.py``, ``serving/palette.py``,
  ``llm/decode.py``) -- kernels must be pure functions of their inputs.
- **RL304**: no direct iteration over unordered ``set(...)`` /set
  literals/set comprehensions -- wrap in ``sorted(...)`` so downstream
  collections have deterministic order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repolint.findings import Finding
from tools.repolint.rules.base import FileContext, Rule, dotted_name

#: The one module allowed to construct default generators.
RNG_HOME_SUFFIX = "tensor/random.py"

KERNEL_SUFFIXES = (
    "core/fastpath.py",
    "core/edkm.py",
    "core/uniquify.py",
    "serving/palette.py",
    "llm/decode.py",
)
KERNEL_DIR_FRAGMENT = "tensor/ops/"


def _in_rng_home(path: str) -> bool:
    return path.endswith(RNG_HOME_SUFFIX)


def _is_kernel_module(path: str) -> bool:
    posix = path.replace("\\", "/")
    return posix.endswith(KERNEL_SUFFIXES) or KERNEL_DIR_FRAGMENT in posix


def _np_random_call(node: ast.Call) -> str | None:
    """The dotted name when ``node`` is an ``np.random.*`` call."""
    name = dotted_name(node.func)
    if name.startswith(("np.random.", "numpy.random.")):
        return name
    return None


class ModuleLevelRandomRule(Rule):
    """RL301: entropy consumed or created at import time."""

    id = "RL301"
    summary = "no module-level np.random.* calls (import must be pure)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag np.random calls outside any function or class method."""
        if _in_rng_home(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _np_random_call(node)
            if name is None:
                continue
            if any(
                isinstance(
                    anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                for anc in ctx.ancestors(node)
            ):
                continue
            yield self.finding(
                ctx,
                node,
                f"module-level call to {name} -- construct generators "
                "inside functions (repro.tensor.random owns the module "
                "default)",
            )


class DefaultGeneratorRule(Rule):
    """RL302: ad-hoc default-generator fallbacks."""

    id = "RL302"
    summary = (
        "default generators come from repro.tensor.random.default_rng(); "
        "do not inline np.random.default_rng fallbacks"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag seedless constructions, `or`-fallbacks, and signature
        defaults built from np.random.default_rng outside the rng home."""
        if _in_rng_home(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _np_random_call(node)
            if name is None or not name.endswith(".default_rng"):
                continue
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "seedless np.random.default_rng() draws OS entropy -- "
                    "thread a Generator in or use "
                    "repro.tensor.random.default_rng()",
                )
                continue
            reason = self._fallback_context(ctx, node)
            if reason is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"np.random.default_rng as {reason} -- use "
                    "repro.tensor.random.default_rng(seed) so default "
                    "generators have one construction site",
                )

    def _fallback_context(
        self, ctx: FileContext, node: ast.Call
    ) -> str | None:
        parent = ctx.parents.get(node)
        if isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.Or):
            if node in parent.values[1:]:
                return "an `or` fallback"
        for anc in ctx.ancestors(node):
            if isinstance(anc, ast.arguments):
                return "a signature default"
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return None


class KernelClockRule(Rule):
    """RL303: wall-clock / stdlib random inside kernel modules."""

    id = "RL303"
    summary = (
        "kernel modules (tensor/ops/, core/fastpath.py, core/edkm.py, "
        "core/uniquify.py, serving/palette.py, llm/decode.py) must not call "
        "time.time() or random.*"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag time.time and random.* calls in kernel modules."""
        if not _is_kernel_module(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name == "time.time" or name.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    f"kernel module calls {name} -- kernels must be pure "
                    "functions of their inputs",
                )


class SetIterationRule(Rule):
    """RL304: iteration order of a bare set leaks into results."""

    id = "RL304"
    summary = (
        "do not iterate directly over set(...)/set literals -- "
        "wrap in sorted() for deterministic order"
    )

    def _is_bare_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name == "set":
                return True
            if name in {"frozenset"}:
                return True
            # set algebra on calls: set(a) - set(b) handled below
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_bare_set(node.left) or self._is_bare_set(
                node.right
            )
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag for-loops and comprehensions iterating a set expression."""
        iters: list[ast.AST] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if self._is_bare_set(it):
                yield self.finding(
                    ctx,
                    it,
                    "iteration over an unordered set feeds downstream "
                    "state -- wrap in sorted(...) for deterministic order",
                )
