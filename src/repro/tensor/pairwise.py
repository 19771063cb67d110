"""Last-axis reductions in numpy's association order, run down long rows.

numpy reduces the last axis of a C-contiguous ``(rows, n)`` array by
entering its inner loop once per ``n``-element row.  With ``n`` a handful
-- the dense DKM map has ``k = 8`` columns at 3 bits, a training attention
row is one short sequence -- that entry costs more than the arithmetic:
``max`` over a ``(32 768, 8)`` map takes 2.1 ms where the same data laid
out as ``(8, 32 768)`` takes 29 µs.  Moved to ``(n, rows)``, every
reduction runs down ``n`` long contiguous rows as a few whole-array ufunc
calls.

The results are bit-identical to numpy's own: ``max`` is order-free, every
other op is elementwise IEEE, and :func:`_sum_rows_pairwise` adds the ``n``
rows in exactly the association order ``np.add.reduce`` uses for a
contiguous run of ``n`` floats.  The move happens in blocks of
:data:`BLOCK_ELEMENTS`, so the transposed copy of a block is still in cache
when it is reduced.

The layout is picked from the array alone: a C-contiguous float32 / float64
array reduced over its last axis, with at least as many rows as the grid
asks for its ``n``.  Speed of the moved layout over numpy's row-wise
reduction (float32, one BLAS thread, 2-core reference VM, min of 5
repeats; each kernel moves in the bracketed cells):

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

=======  =====  =====  =====  =====  =====  =====  =====  ======
sum      32     64     128    256    512    1 024  2 048  32 768
=======  =====  =====  =====  =====  =====  =====  =====  ======
n = 2    0.32   0.43   0.59   0.89   1.34   [2.34  3.90   12.6]
n = 8    0.23   0.31   0.43   0.62   0.96   [1.36  1.86   3.19]
n = 16   0.24   0.30   0.40   0.57   0.82   0.99   [1.23  1.38]
n = 32   0.21   0.27   0.36   0.49   0.49   0.56   0.64   0.58
=======  =====  =====  =====  =====  =====  =====  =====  ======

A sum alone has less row-wise overhead to win back than a softmax (no
``max``, no broadcast subtract), so it moves later and never past
``n`` = 16.  A decode step's ``(B·H, T)`` scores are a few dozen rows --
where the move would run at 0.4-0.8× -- and keep the row-wise path.
"""

from __future__ import annotations

import numpy as np

# Elements per moved block: a block's transposed copy stays in cache.
BLOCK_ELEMENTS = 1 << 16

# (largest n, fewest rows) at which each kernel moves to (n, rows).
SOFTMAX_MIN_ROWS = ((32, 128),)
SUM_MIN_ROWS = ((8, 1024), (16, 2048))

_PAIRWISE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _moves(x: np.ndarray, axis: int, grid: tuple[tuple[int, int], ...]) -> bool:
    """Whether reducing ``x`` over ``axis`` is faster moved to ``(n, rows)``."""
    if axis != x.ndim - 1 or x.dtype not in _PAIRWISE_DTYPES or not x.flags.c_contiguous:
        return False
    n = x.shape[-1]
    if n < 2:
        return False
    for max_n, min_rows in grid:
        if n <= max_n:
            return x.size // n >= min_rows
    return False


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
    """``x.sum(axis=axis, keepdims=True)``, bit for bit, in the faster layout."""
    if not _moves(x, axis, SUM_MIN_ROWS):
        return x.sum(axis=axis, keepdims=True)
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty(flat.shape[0], dtype=x.dtype)
    zero = x.dtype.type(0)
    for block in _row_blocks(*flat.shape):
        np.add(zero, _sum_rows_pairwise(np.ascontiguousarray(flat[block].T)), out=out[block])
    return out.reshape(x.shape[:-1] + (1,))


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
    """Softmax of ``x`` over ``axis`` with the max shift, in the faster layout."""
    if axis < 0:
        axis += x.ndim
    if not _moves(x, axis, SOFTMAX_MIN_ROWS):
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty_like(flat)
    for block in _row_blocks(*flat.shape):
        out[block] = softmax_columns_(np.ascontiguousarray(flat[block].T)).T
    return out.reshape(x.shape)
