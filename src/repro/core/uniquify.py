"""Weight uniquification (paper Section 2.2, Fig. 3).

Training keeps weights in a 16-bit floating format, so a weight tensor of
any size contains at most ``2**16`` distinct bit patterns.  Weights with
equal patterns provably receive identical attention rows, so the dense
``|W| x |C|`` attention map factors exactly into:

- an **attention table** with one row per unique pattern -- ``O(|C|)``
  memory (at most 65,536 rows), and
- an **index list** mapping each weight position to its table row --
  ``O(|W|)`` memory at (u <= 2**16 ? 16 : 32) bits per entry.

The factorization is lossless: gathering table rows by the index list
reconstructs the dense map bit-for-bit.

U runs in two steps.  :func:`pattern_histogram` is what refinement reads:
the unique patterns, their values and their counts, ``O(N)``.  A stored
bf16 weight is already on the bf16 grid, so its patterns are read straight
off the float32 high halves as a strided view -- no rounding pass, no copy
-- after one contiguous ``uint32`` OR shows every low half zero
(:func:`~repro.tensor.dtype._pattern16_view`); a raw array off the grid is
rounded to nearest even by :func:`~repro.tensor.dtype.bit_pattern16`
instead.  From :data:`HISTOGRAM_MIN_SIZE` weights up, the patterns are cast
to ``intp`` and counted by one 65,536-bin ``bincount``.  The histogram keeps
that per-weight pattern array (the view, when there is one), but no index
list: only the op that saves the list for backward needs it.

:func:`build_index_list` is the second step, the only place an index list
is built: one gather of the per-weight ``intp`` keys through a 65,536-entry
pattern -> row table (:func:`pattern_table`).  The gather needs no bounds
check: a 16-bit key cannot leave the table.  The same keys drive any other
per-weight gather through a pattern table -- the eDKM forward's output --
so a caller casts them once.  :func:`uniquify` runs both steps.

:func:`attention_table_ku` builds each softmax table in ``(k, u)`` with
whole-row passes only: the difference, its square, one divide by the
negated temperature, then :func:`~repro.tensor.pairwise.softmax_columns_`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.dtype import DType, _pattern16_view, decode_pattern16, int32, uint16
from repro.tensor.pairwise import softmax_columns_

MAX_UNIQUE_16BIT = 1 << 16


@dataclass(frozen=True)
class PatternHistogram:
    """The unique patterns of a 16-bit weight tensor, without the index list.

    ``values`` and ``counts`` are all refinement reads.  ``weight_patterns``
    lets :func:`build_index_list` and any pattern-table gather read the
    weights again without a second grid check.
    """

    # (N,) uint16, each weight's pattern: a read-only view into the weight
    # when it is on the bf16 grid, never a copy of it.
    weight_patterns: np.ndarray
    patterns: np.ndarray  # (u,) uint16, sorted unique bit patterns
    values: np.ndarray  # (u,) float32, decoded unique values
    counts: np.ndarray  # (u,) int64, multiplicity of each unique value
    source_shape: tuple[int, ...]

    @property
    def n_unique(self) -> int:
        """Distinct 16-bit patterns present (``u``, at most 65,536)."""
        return int(self.patterns.size)

    @property
    def n_weights(self) -> int:
        """Total weight positions (``N``, the index-list length)."""
        return int(self.weight_patterns.size)

    def keys(self) -> np.ndarray:
        """Each weight's pattern as ``intp``: the keys of a pattern-table gather."""
        return self.weight_patterns.astype(np.intp)


@dataclass(frozen=True)
class UniquifiedWeights(PatternHistogram):
    """The full unique-pattern decomposition: the histogram and the index list."""

    index_list: np.ndarray  # (N,) uint16, row of each weight


def check_pattern16_dtype(dtype: DType) -> None:
    """Raise ``TypeError`` unless ``dtype`` is a 16-bit floating format."""
    if not (dtype.is_floating and dtype.itemsize == 2):
        raise TypeError(
            f"uniquification requires a 16-bit floating weight dtype, got {dtype.name}"
        )


def index_dtype_for(n_unique: int) -> DType:
    """Narrowest index element type able to address ``n_unique`` rows."""
    if n_unique <= MAX_UNIQUE_16BIT:
        return uint16
    return int32


# Below this element count the sort is faster than the 2^16-bin histogram,
# whose fixed cost does not shrink with the input; "auto" dispatches on it.
# Either path is bit-identical.  Median uniquify of on-grid bf16 weights,
# sort vs histogram, one thread on a 2-core VM, three runs: 64 weights
# 41-51 vs 86-111 us, 256: 50-57 vs 86-93, 1 024: 75-112 vs 88-99,
# 1 280: 97-126 vs 96-101, 2 047: 230-255 vs 103-124, 4 096: 507-543 vs
# 121-148.
HISTOGRAM_MIN_SIZE = 1024

# Pattern histograms actually computed: one per uniquify() call and one per
# StepCache miss (cache hits never reach the histogram).  Inspected by the
# one-uniquify-per-layer-per-step tests and the fastpath benchmark.
_CALL_COUNT = 0


def uniquify_call_count() -> int:
    """Pattern histograms computed since process start / reset."""
    return _CALL_COUNT


def reset_uniquify_call_count() -> None:
    """Zero the computation counter (test/benchmark bookkeeping)."""
    global _CALL_COUNT
    _CALL_COUNT = 0


def _histogram(
    weights: np.ndarray, dtype: DType, method: str
) -> tuple[PatternHistogram, np.ndarray | None]:
    """:func:`pattern_histogram`, plus the ``intp`` keys it counted (``None`` if sorted).

    The histogram method casts the patterns to ``intp`` once, up front, so
    :func:`uniquify` hands the same keys to :func:`build_index_list`;
    ``bincount`` would make that cast internally otherwise.  One
    ``bincount`` over all 65,536 possible patterns yields the
    multiplicities.  Both methods enumerate the present patterns in
    ascending order, so their results are bit-identical.
    """
    global _CALL_COUNT
    _CALL_COUNT += 1
    # A view into ``weights`` when they are on the bf16 grid: read only.
    weight_patterns = _pattern16_view(weights, dtype).reshape(-1)
    if method == "auto":
        method = "histogram" if weight_patterns.size >= HISTOGRAM_MIN_SIZE else "sort"
    keys = None
    if method == "histogram":
        keys = weight_patterns.astype(np.intp)
        hist = np.bincount(keys, minlength=MAX_UNIQUE_16BIT)
        # flatnonzero scans a bool mask 4x faster than the int64 histogram itself.
        present = np.flatnonzero(hist.astype(bool))
        patterns, counts = present.astype(np.uint16), hist[present]
    elif method == "sort":
        patterns, counts = np.unique(weight_patterns, return_counts=True)
    else:
        raise ValueError(f"unknown uniquify method {method!r}")
    histogram = PatternHistogram(
        weight_patterns=weight_patterns,
        patterns=patterns,
        values=decode_pattern16(patterns, dtype),
        counts=counts,
        source_shape=tuple(np.asarray(weights).shape),
    )
    return histogram, keys


def pattern_histogram(
    weights: np.ndarray, dtype: DType, method: str = "auto"
) -> PatternHistogram:
    """The unique patterns, values and counts of ``weights`` (16-bit dtype).

    ``method`` selects the counting kernel: ``"histogram"`` (the O(N)
    fixed-domain fast path), ``"sort"`` (``np.unique``), or ``"auto"``
    (histogram from :data:`HISTOGRAM_MIN_SIZE` elements up).  All methods
    return bit-identical results.  Counts one :func:`uniquify_call_count`.
    """
    return _histogram(weights, dtype, method)[0]


def pattern_table(patterns: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """A 65,536-entry lookup table holding ``entries[r]`` at pattern ``patterns[r]``.

    Only the ``u`` present patterns are written: a gather by the keys of
    the weights ``patterns`` came from never reads the rest.
    """
    table = np.empty(MAX_UNIQUE_16BIT, dtype=entries.dtype)
    table[patterns] = entries
    return table


def build_index_list(patterns: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The ``O(|W|)`` index list: each weight's row among the unique ``patterns``.

    ``keys`` are the weights' patterns as ``intp``
    (:meth:`PatternHistogram.keys`).  The ranks go into the table already
    in the index dtype -- rank 65,535 fits uint16 -- so the list is one
    gather.  It clips instead of raising on an out-of-range key, which
    skips numpy's bounds check: every key is a 16-bit pattern, so none is
    out of range and none is ever clipped.  The one place an index list is
    built.
    """
    ranks = np.arange(patterns.size, dtype=index_dtype_for(patterns.size).np_storage)
    return pattern_table(patterns, ranks).take(keys, mode="clip")


def uniquify(
    weights: np.ndarray, dtype: DType, method: str = "auto"
) -> UniquifiedWeights:
    """Decompose ``weights`` (16-bit dtype) into unique patterns + indices.

    :func:`pattern_histogram` then :func:`build_index_list`, counted as one
    :func:`uniquify_call_count`; ``method`` is the histogram's.
    """
    histogram, keys = _histogram(weights, dtype, method)
    if keys is None:
        keys = histogram.keys()
    return UniquifiedWeights(
        **vars(histogram), index_list=build_index_list(histogram.patterns, keys)
    )


FLOAT32_OVERFLOW = 2.0**128 - 2.0**103
"""The smallest float64 that rounds to infinity in float32: halfway between
float32's largest finite value and 2**128, where round-half-even goes up."""


def float32_temperature(temperature: float) -> np.float32:
    """``temperature`` as the float32 the attention table divides by.

    Raises ``ValueError``, and warns nothing, unless that float32 is finite
    and positive: NaN, or a value that rounds to 0.0 there, would make every
    entry NaN, and one that overflows to infinity every column uniform.
    """
    # In float64: a float32 temperature would cast the bound to inf.
    if abs(float(temperature)) < FLOAT32_OVERFLOW:  # False for NaN and infinities
        t = np.float32(temperature)
        if t > 0:
            return t
    raise ValueError(
        f"temperature must be finite and positive in float32, got {temperature!r}"
    )


def attention_table_ku(
    unique_values: np.ndarray, centroids: np.ndarray, temperature: float
) -> np.ndarray:
    """:func:`attention_table` in the ``(k, u)`` layout the sweep runs in.

    With ``k`` a handful and ``u`` in the thousands, every reduction of the
    softmax runs down ``k`` long contiguous rows instead of entering
    numpy's inner loop once per ``k``-element row, and the whole table is
    built in one scratch buffer with in-place ufuncs.  Bit-identical to the
    ``(u, k)`` formulation (the test oracle): ``max`` is order-free, the
    normaliser reproduces numpy's association order, the rest is
    elementwise.  The logits are one divide by ``-temperature``: under
    round-to-nearest ``x / -t`` is bit for bit ``-x / t`` (for every x but
    NaN, whose sign may differ), so no pass negates the table.

    ``temperature`` must pass :func:`float32_temperature`, the rule
    :class:`~repro.core.config.DKMConfig` applies too.
    """
    t = float32_temperature(temperature)
    w = np.asarray(unique_values, dtype=np.float32).reshape(1, -1)
    c = np.asarray(centroids, dtype=np.float32).reshape(-1, 1)
    buf = w - c
    np.square(buf, out=buf)
    np.divide(buf, -t, out=buf)
    return softmax_columns_(buf)


def attention_table(
    unique_values: np.ndarray, centroids: np.ndarray, temperature: float
) -> np.ndarray:
    """Softmax attention of each unique weight value to each centroid.

    ``softmax_j(-(w_u - c_j)^2 / temperature)`` with the numerically stable
    shift; shape ``(u, k)``, C-contiguous.
    """
    return np.ascontiguousarray(attention_table_ku(unique_values, centroids, temperature).T)


def dense_attention_map(
    weights: np.ndarray, centroids: np.ndarray, temperature: float
) -> np.ndarray:
    """The O(|W|·|C|) dense map -- reference implementation for tests."""
    flat = np.asarray(weights, dtype=np.float32).reshape(-1)
    return attention_table(flat, centroids, temperature)


def reconstruct_attention_map(
    table: np.ndarray, index_list: np.ndarray
) -> np.ndarray:
    """The paper's backward-pass step: look the dense map back up."""
    return table[np.asarray(index_list, dtype=np.int64)]
