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

:func:`uniquify` is ``O(N)``.  A stored bf16 weight is already on the bf16
grid, so its patterns are read straight off the float32 high halves as a
strided view -- no rounding pass, no copy -- after one contiguous
``uint32`` OR shows every low half zero
(:func:`~repro.tensor.dtype._pattern16_view`); a raw array off the grid is
rounded to nearest even by :func:`~repro.tensor.dtype.bit_pattern16`
instead.  From :data:`HISTOGRAM_MIN_SIZE` weights up, the patterns are cast
to ``intp`` once and that one array feeds both the 65,536-bin ``bincount``
and the pattern -> row gather, which needs no bounds check: a 16-bit key
cannot leave the 65,536-entry lookup table.

:func:`attention_table_ku` builds each softmax table in ``(k, u)`` with
whole-row passes only: the difference, its square, one divide by the
negated temperature, then :func:`~repro.tensor.pairwise.softmax_columns_`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.tensor.dtype import DType, _pattern16_view, decode_pattern16, int32, uint16
from repro.tensor.pairwise import softmax_columns_

MAX_UNIQUE_16BIT = 1 << 16


@dataclass(frozen=True)
class UniquifiedWeights:
    """The unique-pattern decomposition of a 16-bit weight tensor."""

    patterns: np.ndarray  # (u,) uint16, sorted unique bit patterns
    index_list: np.ndarray  # (N,) uint16 or int32, row of each weight
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
        return int(self.index_list.size)

    @property
    def compression_ratio(self) -> float:
        """Dense-row count over unique-row count (the U win on the map)."""
        return self.n_weights / max(self.n_unique, 1)

    def reconstruct_values(self) -> np.ndarray:
        """All weight values, rebuilt from the decomposition."""
        return self.values[self.index_list].reshape(self.source_shape)


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

# Total calls that actually computed a decomposition (cache hits in the
# fast-path StepCache never reach this function).  Inspected by the
# one-uniquify-per-layer-per-step tests and the fastpath benchmark.  The
# lock keeps the counter exact when two threads of one process (the
# serving scheduler and its caller, say) uniquify at once.
_CALL_COUNT = 0
_CALL_COUNT_LOCK = threading.Lock()


def uniquify_call_count() -> int:
    """Number of real uniquify computations since process start / reset."""
    return _CALL_COUNT


def reset_uniquify_call_count() -> None:
    """Zero the computation counter (test/benchmark bookkeeping)."""
    global _CALL_COUNT
    with _CALL_COUNT_LOCK:
        _CALL_COUNT = 0


def _decompose_sort(
    patterns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Legacy O(N log N) decomposition via ``np.unique`` (reference path)."""
    unique_patterns, inverse, counts = np.unique(
        patterns, return_inverse=True, return_counts=True
    )
    return unique_patterns, inverse.reshape(-1), counts


def _decompose_histogram(
    patterns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """O(N + u) decomposition over the fixed 2^16-pattern domain.

    ``patterns`` is a 1-D uint16 array, or a strided view of one.  It is
    cast to ``intp`` once, up front: ``bincount`` and ``take`` would each
    make that cast internally otherwise.  One ``bincount`` over all 65,536
    possible patterns yields the multiplicities; the pattern -> row lookup
    table is written only at the ``u`` present patterns (the rest is never
    read), already in the index dtype -- rank 65,535 fits uint16 -- so the
    index list is one gather.  That gather clips instead of raising on an
    out-of-range key, which skips numpy's bounds check: every key is a
    16-bit pattern, so none is out of range and none is ever clipped.
    Output is bit-identical to ``np.unique`` (both enumerate present
    patterns in ascending order).
    """
    keys = patterns.astype(np.intp)
    hist = np.bincount(keys, minlength=MAX_UNIQUE_16BIT)
    # flatnonzero scans a bool mask 4x faster than the int64 histogram itself.
    present = np.flatnonzero(hist.astype(bool))
    lut = np.empty(MAX_UNIQUE_16BIT, dtype=np.uint16)
    lut[present] = np.arange(present.size, dtype=np.uint16)
    return present.astype(np.uint16), lut.take(keys, mode="clip"), hist[present]


def uniquify(
    weights: np.ndarray, dtype: DType, method: str = "auto"
) -> UniquifiedWeights:
    """Decompose ``weights`` (16-bit dtype) into unique patterns + indices.

    ``method`` selects the decomposition kernel: ``"histogram"`` (the O(N)
    fixed-domain fast path), ``"sort"`` (legacy ``np.unique``), or
    ``"auto"`` (histogram above :data:`HISTOGRAM_MIN_SIZE` elements).  All
    methods return bit-identical results.
    """
    global _CALL_COUNT
    with _CALL_COUNT_LOCK:
        _CALL_COUNT += 1
    # A view into ``weights`` when they are on the bf16 grid: read only.
    patterns = _pattern16_view(weights, dtype).reshape(-1)
    if method == "auto":
        method = "histogram" if patterns.size >= HISTOGRAM_MIN_SIZE else "sort"
    if method == "histogram":
        unique_patterns, inverse, counts = _decompose_histogram(patterns)
    elif method == "sort":
        unique_patterns, inverse, counts = _decompose_sort(patterns)
    else:
        raise ValueError(f"unknown uniquify method {method!r}")
    idx_np = inverse.astype(
        index_dtype_for(unique_patterns.size).np_storage, copy=False
    )
    values = decode_pattern16(unique_patterns, dtype)
    return UniquifiedWeights(
        patterns=unique_patterns,
        index_list=idx_np,
        values=values,
        counts=counts,
        source_shape=tuple(np.asarray(weights).shape),
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
