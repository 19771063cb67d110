"""Short-axis reductions in numpy's association order, run down long rows.

numpy reduces the last axis of a C-contiguous ``(rows, n)`` array by
entering its inner loop once per ``n``-element row.  With ``n`` a handful
-- a training step's attention scores are ``(B, H, T, T)`` with ``T`` one
short sequence, ``(16, 8, 23, 23)`` in the benchmark's step -- that entry
costs more than the arithmetic of the softmax over those rows.  Moved to
``(n, rows)``, its max shift, ``exp`` and normaliser run down ``n`` long
contiguous rows as a few whole-array ufunc calls.

The results are bit-identical to numpy's own: ``max`` is order-free, every
other op is elementwise IEEE, and :func:`_sum_rows_pairwise` adds the ``n``
rows in exactly the association order ``np.add.reduce`` uses for a
contiguous run of ``n`` floats.  The move happens in blocks of
:data:`BLOCK_ELEMENTS`, so the transposed copy of a block is still in cache
when it is reduced.

The layout is picked from the array alone: a C-contiguous float32 / float64
array whose softmax runs over its last axis, with at least as many rows as
:data:`SOFTMAX_MIN_ROWS` asks for its ``n``.  Speed of the moved layout
over numpy's row-wise softmax (float32, one BLAS thread, 2-core reference
VM, min of 5 repeats; the kernel moves in the bracketed cells):

=======  =====  =====  =====  =====  =====  =====  =====  ======
softmax  32     64     128    256    512    1 024  2 048  32 768
=======  =====  =====  =====  =====  =====  =====  =====  ======
n = 2    0.66   0.95   [1.24  1.75   2.55   3.87   4.94   8.73]
n = 8    0.62   0.83   [1.13  1.68   2.32   3.17   3.88   5.39]
n = 16   0.40   0.78   [1.04  1.94   2.64   2.95   3.51   3.86]
n = 32   0.60   0.79   [1.07  1.48   1.47   1.68   1.80   1.87]
n = 64   0.55   0.72   0.89   0.91   0.91   0.94   0.94   0.99
n = 128  0.46   0.64   0.65   0.59   0.64   0.72   0.64
=======  =====  =====  =====  =====  =====  =====  =====  ======

A decode step's ``(B·H, T)`` scores are a few dozen rows -- where the move
would run at 0.4-0.8× -- and keep the row-wise path.  A sum over a last
axis (the softmax backward's ``(grad · y).sum``, ``unbroadcast``) is
numpy's own.  It has less row-wise overhead to win back than a softmax (no
``max``, no broadcast subtract), so a move pays only past 1 024 rows at
``n`` ≤ 8: a shape no benchmark workload sums.

An array already laid out ``(n, m)`` needs no move.  A C-contiguous 2-D
float32 / float64 array reduced over an axis 0 of at most
:data:`DOWN_ROWS_MAX_N` rows -- the dense DKM map is ``(k, |W|)``, with
``k`` up to 2⁸ -- is reduced down those rows in place, in the same pairwise
order and from the same ``+0.0`` identity.  Its bytes are those of the
row-wise reduction of its C-contiguous transpose, not numpy's own axis-0
reduction, which adds the rows in sequence.  A longer axis 0 keeps numpy's.
"""

from __future__ import annotations

import numpy as np

# Elements per moved block: a block's transposed copy stays in cache.
BLOCK_ELEMENTS = 1 << 16

# Longest axis 0 reduced down the rows it has: every k that DKMConfig allows.
DOWN_ROWS_MAX_N = 1 << 8

# (largest n, fewest rows) at which the softmax moves to (n, rows).
SOFTMAX_MIN_ROWS = ((32, 128),)

_PAIRWISE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _moves(x: np.ndarray, axis: int) -> bool:
    """Whether the softmax of ``x`` over ``axis`` is faster moved to ``(n, rows)``."""
    if axis != x.ndim - 1 or x.dtype not in _PAIRWISE_DTYPES or not x.flags.c_contiguous:
        return False
    n = x.shape[-1]
    if n < 2:
        return False
    for max_n, min_rows in SOFTMAX_MIN_ROWS:
        if n <= max_n:
            return x.size // n >= min_rows
    return False


def _down_rows(x: np.ndarray, axis: int) -> bool:
    """Whether reducing ``x`` over ``axis`` runs down the rows it already has."""
    return (
        axis == 0
        and x.ndim == 2
        and 0 < x.shape[0] <= DOWN_ROWS_MAX_N
        and x.dtype in _PAIRWISE_DTYPES
        and x.flags.c_contiguous
    )


def _row_blocks(rows: int, n: int) -> list[slice]:
    step = max(BLOCK_ELEMENTS // n, 1)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _sum_rows_pairwise(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``(n, m)`` ``rows`` in numpy's pairwise order.

    Adds the ``n`` rows in exactly the association order ``np.add.reduce``
    uses for a contiguous run of ``n`` floats: sequential below 8; eight
    interleaved accumulators combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus a sequential tail up to
    128; halves (the first a multiple of 8) above.  ``add.reduce`` also
    starts from its identity, ``0 + total``, which only turns a column of
    ``-0.0`` into ``+0.0``; a softmax normaliser (a sum of ``exp``) cannot
    be ``-0.0``, so :func:`sum_keepdims` alone adds that zero.
    """
    n = rows.shape[0]
    if n > 128:
        half = n // 2
        half -= half % 8
        return _sum_rows_pairwise(rows[:half]) + _sum_rows_pairwise(rows[half:])
    if n < 8:
        total, tail = rows[0].copy(), rows[1:]
    else:
        body = n - n % 8
        lanes = rows[:8]
        for start in range(8, body, 8):
            lanes = lanes + rows[start : start + 8]
        pairs = lanes[0::2] + lanes[1::2]
        quads = pairs[0::2] + pairs[1::2]
        total, tail = quads[0] + quads[1], rows[body:]
    for row in tail:
        total += row
    return total


def sum_keepdims(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.sum(axis=axis, keepdims=True)``, down the rows over a short axis 0.

    Bit for bit numpy's, except over an axis 0 that :func:`_down_rows`
    takes: there it is the pairwise sum down the rows, the bytes of the
    row-wise sum of ``x``'s C-contiguous transpose.
    """
    if not _down_rows(x, axis):
        return x.sum(axis=axis, keepdims=True)
    total = _sum_rows_pairwise(x)
    return np.add(x.dtype.type(0), total, out=total).reshape(1, -1)


def softmax_columns_(buf: np.ndarray) -> np.ndarray:
    """Softmax down axis 0 of a C-contiguous ``(n, m)`` buffer, in place.

    The tail both layouts share: the max shift, ``exp`` and the pairwise
    normaliser, each over ``n`` rows of ``m`` contiguous elements.
    """
    np.subtract(buf, buf.max(axis=0), out=buf)
    np.exp(buf, out=buf)
    np.divide(buf, _sum_rows_pairwise(buf), out=buf)
    return buf


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of ``x`` over ``axis`` with the max shift, in the faster layout.

    Over an axis 0 that :func:`_down_rows` takes, it runs down the rows
    with no move, and its bytes are the row-wise softmax of ``x``'s
    C-contiguous transpose, transposed.
    """
    if axis < 0:
        axis += x.ndim
    if _down_rows(x, axis):
        return softmax_columns_(x.copy())
    if not _moves(x, axis):
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty_like(flat)
    for block in _row_blocks(*flat.shape):
        out[block] = softmax_columns_(np.ascontiguousarray(flat[block].T)).T
    return out.reshape(x.shape)
