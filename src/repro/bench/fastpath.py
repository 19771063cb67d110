"""Fast-path engine micro-benchmark: old vs new hot-loop kernels.

Three components of the per-step eDKM pipeline are measured against their
legacy implementations:

- **uniquify**: O(N) fixed-domain histogram vs sort-based ``np.unique``
  (bit-identical outputs are asserted on every shape);
- **segment reduction**: ``np.bincount``-based :func:`segment_sum` /
  :func:`scatter_add_rows` vs element-wise ``np.add.at``;
- **step cache**: uniquify calls and wall time per training step with the
  per-layer :class:`~repro.core.fastpath.StepCache` (one uniquify per layer
  per step) vs the legacy two-uniquify step.

Kept out of tier-1 (timing gates do not belong in the correctness suite);
``python -m repro.bench fastpath`` writes ``BENCH_fastpath.json`` and exits
non-zero if a bit-exactness, call-count or not-slower gate fails.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.config import DKMConfig
from repro.core.dkm import DKMClusterer
from repro.core.edkm import EDKMClusterAssign, edkm_cluster
from repro.core.uniquify import (
    reset_uniquify_call_count,
    uniquify,
    uniquify_call_count,
)
from repro.tensor.autograd import no_grad
from repro.tensor.dtype import bfloat16, float32
from repro.tensor.ops.segment import scatter_add_rows, segment_sum
from repro.tensor.tensor import Tensor

# Shapes the not-slower assertion runs on (element counts of bf16 tensors).
REFERENCE_SHAPES = (1 << 16, 1 << 20, 1 << 22)

# The histogram uniquify must beat the sort by this factor at N >= 1M
# (acceptance criterion); at small N it only has to not be slower.
LARGE_N = 1 << 20
LARGE_N_MIN_SPEEDUP = 2.0

# The bincount scatter must beat the float64-accurate legacy outright, and
# may not drift past this multiple of the fastest (dtype-matched float32)
# legacy formulation -- the guardrail that catches a real regression even
# though the accuracy-equivalent baseline is the headline comparison.
MATCHED_RATIO_CEILING = 3.0


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (the least-noise estimator)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class UniquifyBenchRow:
    n_weights: int
    sort_seconds: float
    histogram_seconds: float
    bit_identical: bool

    @property
    def speedup(self) -> float:
        return self.sort_seconds / max(self.histogram_seconds, 1e-12)


@dataclass
class ScatterBenchRow:
    """One scatter comparison against two legacy formulations.

    ``add_at_mixed_seconds`` is the accuracy-equivalent baseline (float64
    accumulator, element-wise ufunc path -- what ``kmeans_palettize``'s
    count accumulation shipped); ``add_at_matched_seconds`` is the
    dtype-matched float32 ``np.add.at`` that modern numpy vectorizes (what
    the eDKM backward shipped, at float32 accumulation accuracy).  The
    headline ``speedup`` is against the accuracy-equivalent baseline; the
    matched ratio is reported and bounded so the bincount path can never
    silently regress far below the fastest legacy formulation.
    """

    kind: str  # "segment_sum" or "scatter_add_rows"
    n_elements: int
    add_at_mixed_seconds: float
    add_at_matched_seconds: float
    bincount_seconds: float
    max_abs_error: float

    @property
    def speedup(self) -> float:
        return self.add_at_mixed_seconds / max(self.bincount_seconds, 1e-12)

    @property
    def matched_ratio(self) -> float:
        """bincount time over dtype-matched add.at time (lower is better)."""
        return self.bincount_seconds / max(self.add_at_matched_seconds, 1e-12)


@dataclass
class StepBenchRow:
    n_weights: int
    steps: int
    legacy_seconds_per_step: float
    fastpath_seconds_per_step: float
    legacy_uniquify_per_step: float
    fastpath_uniquify_per_step: float

    @property
    def speedup(self) -> float:
        return self.legacy_seconds_per_step / max(
            self.fastpath_seconds_per_step, 1e-12
        )


@dataclass
class FastPathBenchResult:
    uniquify: list[UniquifyBenchRow] = field(default_factory=list)
    scatter: list[ScatterBenchRow] = field(default_factory=list)
    step: list[StepBenchRow] = field(default_factory=list)
    repeats: int = 0
    steps: int = 0

    def to_json_dict(self) -> dict:
        def rows(items):
            out = []
            for item in items:
                d = asdict(item)
                d["speedup"] = item.speedup
                if isinstance(item, ScatterBenchRow):
                    d["matched_ratio"] = item.matched_ratio
                out.append(d)
            return out

        return {
            "benchmark": "fastpath",
            "uniquify": rows(self.uniquify),
            "scatter": rows(self.scatter),
            "step": rows(self.step),
            "repeats": self.repeats,
            "steps": self.steps,
        }

    def render(self) -> str:
        lines = [
            f"{f'uniquify N={row.n_weights}':<28} sort {row.sort_seconds:.5f}s  "
            f"histogram {row.histogram_seconds:.5f}s  "
            f"speedup {row.speedup:.1f}x  bit-identical={row.bit_identical}"
            for row in self.uniquify
        ]
        lines += [
            f"{f'{row.kind} N={row.n_elements}':<28} "
            f"add.at(f64) {row.add_at_mixed_seconds:.5f}s  "
            f"add.at(f32) {row.add_at_matched_seconds:.5f}s  "
            f"bincount {row.bincount_seconds:.5f}s  "
            f"speedup {row.speedup:.1f}x  "
            f"vs-matched {row.matched_ratio:.2f}  max|err| {row.max_abs_error:.2e}"
            for row in self.scatter
        ]
        lines += [
            f"{f'train step N={row.n_weights}':<28} "
            f"legacy {row.legacy_seconds_per_step:.5f}s/step  "
            f"fastpath {row.fastpath_seconds_per_step:.5f}s/step  "
            f"speedup {row.speedup:.1f}x  uniquify/step "
            f"{row.legacy_uniquify_per_step:.0f}->{row.fastpath_uniquify_per_step:.0f}"
            for row in self.step
        ]
        return "\n".join(lines)

    def failures(self) -> list[str]:
        failures: list[str] = []
        for row in self.uniquify:
            label = f"uniquify N={row.n_weights}"
            if not row.bit_identical:
                failures.append(f"{label}: histogram output differs from np.unique")
            if row.speedup < 1.0:
                failures.append(f"{label}: fast path slower ({row.speedup:.2f}x)")
            if row.n_weights >= LARGE_N and row.speedup < LARGE_N_MIN_SPEEDUP:
                failures.append(
                    f"{label}: speedup {row.speedup:.2f}x below the "
                    f"{LARGE_N_MIN_SPEEDUP}x floor for N >= 1M"
                )
        for row in self.scatter:
            label = f"{row.kind} N={row.n_elements}"
            if row.max_abs_error > 1e-3:
                failures.append(f"{label}: bincount result diverges from np.add.at")
            if row.speedup < 1.0:
                failures.append(
                    f"{label}: slower than the float64-accurate legacy "
                    f"({row.speedup:.2f}x)"
                )
            if row.matched_ratio > MATCHED_RATIO_CEILING:
                failures.append(
                    f"{label}: bincount is {row.matched_ratio:.2f}x the "
                    f"dtype-matched add.at (ceiling {MATCHED_RATIO_CEILING}x)"
                )
        for row in self.step:
            label = f"train step N={row.n_weights}"
            if row.fastpath_uniquify_per_step != 1.0:
                failures.append(
                    f"{label}: expected exactly one uniquify per step, got "
                    f"{row.fastpath_uniquify_per_step}"
                )
            if row.legacy_uniquify_per_step != 2.0:
                failures.append(
                    f"{label}: the legacy step should uniquify twice, got "
                    f"{row.legacy_uniquify_per_step}"
                )
            if row.speedup < 1.0:
                failures.append(f"{label}: fast path slower ({row.speedup:.2f}x)")
        return failures


def _bench_uniquify(
    n_weights: int, repeats: int, rng: np.random.Generator
) -> UniquifyBenchRow:
    w = bfloat16.project(rng.standard_normal(n_weights).astype(np.float32))
    sort_s = _best_of(lambda: uniquify(w, bfloat16, method="sort"), repeats)
    hist_s = _best_of(lambda: uniquify(w, bfloat16, method="histogram"), repeats)
    a = uniquify(w, bfloat16, method="sort")
    b = uniquify(w, bfloat16, method="histogram")
    identical = (
        np.array_equal(a.patterns, b.patterns)
        and np.array_equal(a.index_list, b.index_list)
        and a.index_list.dtype == b.index_list.dtype
        and np.array_equal(a.counts, b.counts)
    )
    return UniquifyBenchRow(
        n_weights=n_weights,
        sort_seconds=sort_s,
        histogram_seconds=hist_s,
        bit_identical=identical,
    )


def _bench_segment_sum(
    n_elements: int, n_segments: int, repeats: int, rng: np.random.Generator
) -> ScatterBenchRow:
    ids = rng.integers(0, n_segments, size=n_elements, dtype=np.int64)
    vals = rng.standard_normal(n_elements).astype(np.float32)

    def legacy_mixed() -> np.ndarray:
        # The float64-accurate formulation.  Mixed accumulator/payload
        # dtypes force numpy's element-wise ufunc.at path (the vectorized
        # inner loop needs matching dtypes).
        out = np.zeros(n_segments, dtype=np.float64)
        np.add.at(out, ids, vals)
        return out

    def legacy_matched() -> np.ndarray:
        # The dtype-matched formulation the eDKM backward actually used
        # (float32 accumulation; vectorized on numpy >= 1.24).
        out = np.zeros(n_segments, dtype=np.float32)
        np.add.at(out, ids, vals)
        return out

    mixed_s = _best_of(legacy_mixed, repeats)
    matched_s = _best_of(legacy_matched, repeats)
    bincount_s = _best_of(lambda: segment_sum(vals, ids, n_segments), repeats)
    err = float(np.abs(legacy_mixed() - segment_sum(vals, ids, n_segments)).max())
    return ScatterBenchRow(
        kind="segment_sum",
        n_elements=n_elements,
        add_at_mixed_seconds=mixed_s,
        add_at_matched_seconds=matched_s,
        bincount_seconds=bincount_s,
        max_abs_error=err,
    )


def _bench_scatter_rows(
    n_rows_out: int,
    n_gather: int,
    width: int,
    repeats: int,
    rng: np.random.Generator,
) -> ScatterBenchRow:
    idx = rng.integers(0, n_rows_out, size=n_gather, dtype=np.int64)
    grad = rng.standard_normal((n_gather, width)).astype(np.float32)

    def legacy_mixed() -> np.ndarray:
        # Same float64-accurate element-wise baseline as _bench_segment_sum.
        out = np.zeros((n_rows_out, width), dtype=np.float64)
        np.add.at(out, idx, grad)
        return out

    def legacy_matched() -> np.ndarray:
        # What IndexSelect.backward shipped: float32-matched np.add.at.
        out = np.zeros((n_rows_out, width), dtype=np.float32)
        np.add.at(out, idx, grad)
        return out

    mixed_s = _best_of(legacy_mixed, repeats)
    matched_s = _best_of(legacy_matched, repeats)
    bincount_s = _best_of(lambda: scatter_add_rows(idx, grad, n_rows_out), repeats)
    err = float(np.abs(legacy_mixed() - scatter_add_rows(idx, grad, n_rows_out)).max())
    return ScatterBenchRow(
        kind="scatter_add_rows",
        n_elements=n_gather * width,
        add_at_mixed_seconds=mixed_s,
        add_at_matched_seconds=matched_s,
        bincount_seconds=bincount_s,
        max_abs_error=err,
    )


def _perturb(weights: Tensor, rng: np.random.Generator) -> None:
    """Simulate an optimizer write (bumps the storage version counter)."""
    noise = rng.standard_normal(weights.shape).astype(np.float32) * 1e-3
    weights.copy_(weights._compute() + noise)


def _bench_step(
    n_weights: int, steps: int, bits: int, rng: np.random.Generator
) -> StepBenchRow:
    values = rng.standard_normal(n_weights).astype(np.float32) * 0.05
    config = DKMConfig(bits=bits, iters=3)

    # Legacy: refine and the forward assignment each uniquify, no carry-over.
    weights = Tensor.from_numpy(values, dtype=bfloat16, requires_grad=True)
    clusterer = DKMClusterer(config)
    reset_uniquify_call_count()
    t0 = time.perf_counter()
    for _ in range(steps):
        clusterer.fastpath.invalidate()
        with no_grad():
            state = clusterer.refine(weights)
        clusterer.fastpath.invalidate()
        centroids = Tensor.from_numpy(state.centroids, dtype=float32)
        EDKMClusterAssign.apply(weights, centroids, state.temperature)
        _perturb(weights, rng)
    legacy_s = (time.perf_counter() - t0) / steps
    legacy_calls = uniquify_call_count() / steps

    # Fast path: shared StepCache, one uniquify per step, table carried over.
    weights = Tensor.from_numpy(values, dtype=bfloat16, requires_grad=True)
    clusterer = DKMClusterer(config)
    reset_uniquify_call_count()
    t0 = time.perf_counter()
    for _ in range(steps):
        edkm_cluster(weights, clusterer)
        _perturb(weights, rng)
    fastpath_s = (time.perf_counter() - t0) / steps
    fastpath_calls = uniquify_call_count() / steps

    return StepBenchRow(
        n_weights=n_weights,
        steps=steps,
        legacy_seconds_per_step=legacy_s,
        fastpath_seconds_per_step=fastpath_s,
        legacy_uniquify_per_step=legacy_calls,
        fastpath_uniquify_per_step=fastpath_calls,
    )


def run_fastpath(
    uniquify_sizes: tuple[int, ...] = REFERENCE_SHAPES,
    repeats: int = 3,
    step_weights: int = 1 << 18,
    steps: int = 4,
    bits: int = 3,
    seed: int = 0,
) -> FastPathBenchResult:
    """Run all three micro-benchmarks with a fixed seed."""
    rng = np.random.default_rng(seed)
    result = FastPathBenchResult(repeats=repeats, steps=steps)
    for n in uniquify_sizes:
        result.uniquify.append(_bench_uniquify(n, repeats, rng))
    result.scatter.append(_bench_segment_sum(1 << 20, 1 << 14, repeats, rng))
    result.scatter.append(_bench_scatter_rows(4096, 1 << 15, 64, repeats, rng))
    result.step.append(_bench_step(step_weights, steps, bits, rng))
    return result


def run(quick: bool = False, seed: int = 0) -> FastPathBenchResult:
    """``python -m repro.bench fastpath``; quick = smaller shapes, fewer repeats."""
    if quick:
        return run_fastpath(
            uniquify_sizes=(1 << 16, 1 << 20),
            repeats=2,
            step_weights=1 << 16,
            steps=2,
            seed=seed,
        )
    return run_fastpath(seed=seed)
