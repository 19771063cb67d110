"""Segment reductions built on ``np.bincount``.

``np.add.at`` is the obvious way to scatter-add gradients into duplicate
index slots, but it dispatches element-by-element through the ufunc inner
loop and is orders of magnitude slower than a histogram.  Every segment
reduction in the repo (the eDKM centroid gradient, embedding-gather
backward, Lloyd iterations in palettization) routes through the two helpers
here instead:

- :func:`segment_sum` -- 1-D values grouped by segment id, one ``bincount``.
- :func:`scatter_add_rows` -- row-shaped gradients scattered into a
  ``(num_rows, ...)`` buffer via a composite ``row * D + col`` key, chunked
  so the temporary int64 key array stays bounded.

Both accumulate in float64 (``np.bincount``'s native accumulator), which is
at least as accurate as in-dtype ``np.add.at`` accumulation; callers cast
the result back to the gradient dtype.

Why ``bincount`` rather than relying on ``np.add.at``: recent numpy gives
``ufunc.at`` a vectorized inner loop, but *only* when the accumulator and
payload dtypes match exactly -- mix a float32 gradient into a float64
accumulator (the natural way to write an accuracy-preserving scatter, and
what the palettization Lloyd loop used to do with int64 counts) and it
silently falls back to the element-wise path, an order of magnitude
slower.  ``bincount`` is O(N) with float64 accumulation on every numpy
version and every input dtype, so the hot loops cannot regress by dtype
accident.
"""

from __future__ import annotations

import numpy as np

# Upper bound on the composite-key temporary built per chunk by
# scatter_add_rows, in elements (int64 key + float64 payload per element).
CHUNK_ELEMS = 1 << 22


def segment_sum(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sum ``values`` into ``num_segments`` buckets keyed by ``segment_ids``.

    Equivalent to ``np.add.at(out, segment_ids, values)`` on a zeroed
    float64 ``out`` of length ``num_segments``, but O(N) via ``bincount``.
    Bounds behavior differs from ``np.add.at`` in one way: ids must be
    in ``[0, num_segments)`` -- ids past the end raise ``IndexError``,
    and negative ids raise ``ValueError`` (from ``bincount``) instead of
    wrapping around.
    """
    ids = np.asarray(segment_ids).reshape(-1)
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if ids.size == 0:
        return np.zeros(num_segments, dtype=np.float64)
    out = np.bincount(
        ids.astype(np.int64, copy=False), weights=vals, minlength=num_segments
    )
    if out.size > num_segments:
        # bincount sized itself past the segment count: some id overflows.
        # (A free bounds check -- no extra pass over the ids.)
        raise IndexError(
            f"segment id {int(ids.max())} out of range [0, {num_segments})"
        )
    return out


def scatter_add_rows(
    indices: np.ndarray,
    grad: np.ndarray,
    num_rows: int,
    chunk_elems: int = CHUNK_ELEMS,
) -> np.ndarray:
    """Scatter-add ``grad`` rows into a zeroed ``(num_rows, D)`` buffer.

    ``indices`` is ``(N,)`` int, ``grad`` is ``(N, D)``; rows with equal
    indices sum.  Equivalent to ``np.add.at(out, indices, grad)`` but built
    from ``bincount`` over the composite key ``index * D + column``.  The
    key temporary is materialized at most ``chunk_elems`` elements at a
    time, so peak extra memory stays bounded for very tall gathers.
    """
    idx = np.asarray(indices).reshape(-1).astype(np.int64, copy=False)
    g = np.asarray(grad)
    d = int(np.prod(g.shape[1:])) if g.ndim > 1 else 1
    if idx.size == 0 or d == 0:
        return np.zeros((num_rows, d), dtype=np.float64)
    g = g.reshape(idx.size, -1)
    n, d = g.shape
    if d == 1:
        return segment_sum(g[:, 0], idx, num_rows).reshape(num_rows, 1)
    out = np.zeros(num_rows * d, dtype=np.float64)
    cols = np.arange(d, dtype=np.int64)
    step = max(1, chunk_elems // d)
    for start in range(0, n, step):
        stop = min(start + step, n)
        key = (idx[start:stop, None] * d + cols[None, :]).reshape(-1)
        # The float64 payload copy happens per chunk inside bincount, so
        # the temporaries (key + payload) stay bounded by chunk_elems.
        binned = np.bincount(
            key, weights=g[start:stop].reshape(-1), minlength=num_rows * d
        )
        if binned.size > num_rows * d:
            raise IndexError(
                f"row index {int(idx[start:stop].max())} out of range "
                f"[0, {num_rows})"
            )
        out += binned
    return out.reshape(num_rows, d)
