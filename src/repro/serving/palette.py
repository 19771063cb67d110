"""Palette-aware matmul kernels for eval-mode clustered layers.

A palettized linear weight ``W`` of shape ``(out, in)`` takes at most
``k = 2**bits`` distinct values -- the palette.  The dense eval path
materializes ``lut[idx]`` and runs an ordinary gemm, paying
``B * out * in`` multiplies.  The palette kernel restructures the matmul
around the palette instead::

    y[b, o] = sum_i x[b, i] * lut[idx[o, i]]
            = sum_k lut[k] * ( sum_{i : idx[o, i] == k} x[b, i] )

The inner parenthesis is a *segment sum* of activations -- additions
only -- and the outer mixture is a ``(B, out, k) @ (k,)`` contraction:
the multiply count scales with ``k``, not with the dense inner dimension.
:class:`PaletteLayout` precomputes the segment structure once per weight
version (a permutation of weight positions sorted by ``(row, palette
entry)`` plus segment bounds), so the per-call work is one activation
gather, one cumulative sum, and the ``k``-column mixture.

In front of the kernel sits a **dequantized-tile cache**
(:class:`TileCache`): the first call runs each output-row tile through
the palette kernel and materializes it back to dense, and every later
call serves it by gemm (trading bytes for BLAS throughput) until the
weight version moves on.

Everything in this module is plain numpy on host memory -- no tensor
autograd, no device tracking -- because it models the *deployment*
artifact execution, not training.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.serving.faults import CorruptTileError

TILE_ROWS = 32
"""Output rows per dequantized tile -- the unit the tile cache holds and
the palette kernel processes (a layer's last tile may be shorter)."""


def _index_dtype(bound: int) -> np.dtype:
    """Smallest unsigned dtype addressing ``bound`` distinct values."""
    if bound <= 1 << 8:
        return np.dtype(np.uint8)
    if bound <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class PaletteLayout:
    """Precomputed segment structure of one palettized ``(out, in)`` weight.

    ``cols`` lists the *input-column* index of every weight position,
    sorted by ``(output row, palette entry)``; ``bounds`` delimits the
    ``out * k`` segments in that order.  Rows are contiguous prefixes of
    the sort order, so any tile of output rows is a contiguous slice --
    the property the tiled kernel and the dequantizer rely on.
    """

    lut: np.ndarray  # (k,) float32, already projected to the serving dtype
    cols: np.ndarray  # (out * in,) smallest-fitting uint dtype
    bounds: np.ndarray  # (out * k + 1,) int64, segment starts
    out_features: int
    in_features: int

    @property
    def k(self) -> int:
        """Palette entries (``2**bits``)."""
        return int(self.lut.size)

    @property
    def nbytes(self) -> int:
        """Host bytes of the in-memory execution layout (lut + cols + bounds)."""
        return int(self.lut.nbytes + self.cols.nbytes + self.bounds.nbytes)

    @property
    def packed_nbytes(self) -> int:
        """Bytes of the minimal shippable artifact: 16-bit lut + bit-packed indices.

        The execution layout (:attr:`nbytes`) trades memory for kernel
        speed; this is what actually ships -- the eDKM deployment size
        of ``bits/16`` of a float16 weight, plus the ``k``-entry lut.
        """
        bits = max(1, (self.k - 1).bit_length())
        positions = self.out_features * self.in_features
        return int(2 * self.k + (positions * bits + 7) // 8)

    @classmethod
    def build(cls, lut: np.ndarray, indices: np.ndarray) -> "PaletteLayout":
        """Precompute the layout for palette ``lut`` and index matrix ``indices``.

        ``indices`` is the ``(out, in)`` nearest-centroid assignment; the
        sort is a stable counting argsort over ``row * k + idx``, so the
        layout is deterministic for identical inputs.
        """
        lut = np.asarray(lut, dtype=np.float32).reshape(-1)
        indices = np.asarray(indices)
        if indices.ndim != 2:
            raise ValueError(f"indices must be 2-D (out, in), got {indices.shape}")
        out_features, in_features = indices.shape
        k = int(lut.size)
        if indices.size and int(indices.max()) >= k:
            raise ValueError(
                f"index {int(indices.max())} out of range for a {k}-entry palette"
            )
        keys = indices.astype(np.int64, copy=False) + (
            np.arange(out_features, dtype=np.int64)[:, None] * k
        )
        flat_keys = keys.reshape(-1)
        perm = np.argsort(flat_keys, kind="stable")
        cols_all = np.tile(
            np.arange(in_features, dtype=np.int64), out_features
        )
        cols = cols_all[perm].astype(_index_dtype(in_features))
        counts = np.bincount(flat_keys, minlength=out_features * k)
        bounds = np.zeros(out_features * k + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        return cls(
            lut=lut,
            cols=cols,
            bounds=bounds,
            out_features=out_features,
            in_features=in_features,
        )

    def dequantize_rows(self, row_start: int, row_end: int) -> np.ndarray:
        """Materialize output rows ``[row_start, row_end)`` as dense float32.

        The tile the cache holds: reconstructed by scattering each
        segment's palette value back to its input columns.
        """
        rows = row_end - row_start
        k = self.k
        seg_lo, seg_hi = row_start * k, row_end * k
        seg_len = np.diff(self.bounds[seg_lo : seg_hi + 1])
        values = np.repeat(np.tile(self.lut, rows), seg_len)
        pos_lo, pos_hi = self.bounds[seg_lo], self.bounds[seg_hi]
        cols = self.cols[pos_lo:pos_hi].astype(np.int64, copy=False)
        row_of_pos = np.repeat(
            np.arange(rows, dtype=np.int64), self.in_features
        )
        tile = np.empty((rows, self.in_features), dtype=np.float32)
        tile[row_of_pos, cols] = values
        return tile


def palette_matmul(
    x: np.ndarray,
    layout: PaletteLayout,
    row_start: int = 0,
    row_end: int | None = None,
) -> np.ndarray:
    """``x @ W[row_start:row_end].T`` computed against the palette.

    ``x`` is ``(B, in)``; the result is ``(B, rows)`` float32.  Per call:
    one ``O(B * rows * in)`` activation gather + cumulative sum (additions,
    accumulated in float64 so segment differences stay accurate) and an
    ``O(B * rows * k)`` mixture against the palette -- the only multiply
    stage, scaling with ``k`` instead of the dense inner dimension.
    """
    if row_end is None:
        row_end = layout.out_features
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != layout.in_features:
        raise ValueError(
            f"x must be (B, {layout.in_features}), got {x.shape}"
        )
    rows = row_end - row_start
    k = layout.k
    seg_lo, seg_hi = row_start * k, row_end * k
    pos_lo, pos_hi = layout.bounds[seg_lo], layout.bounds[seg_hi]
    cols = layout.cols[pos_lo:pos_hi].astype(np.int64, copy=False)
    gathered = x[:, cols]
    csum = np.zeros((x.shape[0], gathered.shape[1] + 1), dtype=np.float64)
    np.cumsum(gathered, axis=1, dtype=np.float64, out=csum[:, 1:])
    seg_bounds = (layout.bounds[seg_lo : seg_hi + 1] - pos_lo).astype(np.int64)
    seg_sums = csum[:, seg_bounds[1:]] - csum[:, seg_bounds[:-1]]  # (B, rows*k)
    mixed = seg_sums.reshape(x.shape[0], rows, k) @ layout.lut.astype(np.float64)
    return mixed.astype(np.float32)


@dataclass
class TileCacheStats:
    """Hit/miss counters of one :class:`TileCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corruptions: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form for stats reports and benchmark artifacts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corruptions": self.corruptions,
        }


class TileCache:
    """The dequantized weight tiles of every served layer.

    Shared across every served layer (keys carry the layer name and
    weight version); a tile stays resident until its layer's version is
    invalidated.  Thread-safe: the scheduler thread and any caller
    probing stats may race.

    Every tile is stamped with its CRC-32 at :meth:`put`, and every
    :meth:`get` recomputes the stamp over the whole tile: a resident tile
    whose bytes no longer match -- bit-rot, a stray write through an
    aliased view, or the fault injector's :meth:`corrupt_one` -- is
    dropped and surfaced as a typed
    :class:`~repro.serving.faults.CorruptTileError` instead of silently
    serving wrong logits.  The error is a transient step error: the
    supervised scheduler retries the step, which re-dequantizes cleanly.

    The stamp is an error-detecting code, not a cryptographic hash: it
    sits in the same dict entry as the tile, so whoever can write one can
    write the other (preimage resistance buys nothing), and every threat
    above is *accidental* corruption, where CRC-32 guarantees what a
    truncated hash only makes likely -- any burst of at most 32 bits (all
    damage confined to one float32, or to the injector's one byte) and
    any 1- or 2-bit error are always caught, anything else with
    probability ``1 - 2**-32``.  Process-local, never serialized.

    Resident tiles are read-only (``put`` clears ``writeable``, ``get``
    returns that same array), so a stray write through one, or through a
    view taken from it, raises ``ValueError`` at the writer; only an
    alias that predates ``put`` can still reach the bytes, and the stamp
    catches that.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tiles: dict[tuple, tuple[np.ndarray, int]] = {}
        self._resident_bytes = 0
        self.stats = TileCacheStats()

    @staticmethod
    def _digest(tile: np.ndarray) -> int:
        # CRC-32 over the tile's buffer in place: no copy per visit.  A
        # non-contiguous tile is refused (ValueError), never copied.
        return zlib.crc32(tile)

    def get(self, key: tuple) -> np.ndarray | None:
        """The tile under ``key``, or ``None``.

        Raises :class:`~repro.serving.faults.CorruptTileError` (after
        dropping the entry) when the tile's bytes no longer match the
        CRC-32 stamped at :meth:`put`.  The returned array is read-only.
        """
        with self._lock:
            entry = self._tiles.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            tile, digest = entry
            if self._digest(tile) != digest:
                self._tiles.pop(key)
                self._resident_bytes -= int(tile.nbytes)
                self.stats.corruptions += 1
                raise CorruptTileError(str(key[0]))
            self.stats.hits += 1
            return tile

    def put(self, key: tuple, tile: np.ndarray) -> None:
        """Insert ``tile`` and make it read-only: the cache owns it from
        here on."""
        nbytes = int(tile.nbytes)
        digest = self._digest(tile)
        tile.setflags(write=False)
        with self._lock:
            old = self._tiles.pop(key, None)
            if old is not None:
                self._resident_bytes -= int(old[0].nbytes)
            self._tiles[key] = (tile, digest)
            self._resident_bytes += nbytes
            self.stats.puts += 1

    def holds(self, prefix: tuple) -> bool:
        """Whether any tile under ``prefix`` is resident (a poisoning target)."""
        with self._lock:
            return any(key[: len(prefix)] == prefix for key in self._tiles)

    def corrupt_one(self, prefix: tuple) -> bool:
        """Flip one byte of the oldest resident tile under ``prefix``.

        The fault injector's poisoning primitive (the bit-rot stand-in,
        and the only code that lifts a resident tile's read-only flag):
        the stamp is deliberately *not* refreshed, so the next :meth:`get`
        of that key detects the corruption.  Returns whether a tile was
        poisoned (``False`` when nothing under ``prefix`` is resident).
        """
        with self._lock:
            for key, (tile, _) in self._tiles.items():
                if key[: len(prefix)] == prefix:
                    tile.setflags(write=True)
                    tile.view(np.uint8).reshape(-1)[0] ^= 0xFF
                    tile.setflags(write=False)
                    return True
        return False

    def invalidate_prefix(self, prefix: tuple) -> None:
        """Drop every tile whose key starts with ``prefix`` (stale version)."""
        with self._lock:
            stale = [k for k in self._tiles if k[: len(prefix)] == prefix]
            for key in stale:
                self._resident_bytes -= int(self._tiles.pop(key)[0].nbytes)

    def resident_bytes(self) -> int:
        """Bytes currently held by resident tiles."""
        with self._lock:
            return self._resident_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._tiles)


@dataclass
class PaletteExecStats:
    """Per-layer execution counters: which path served how many rows.

    ``palette_row_blocks`` counts tiles run through the palette kernel;
    ``dense_rows`` counts output rows served by gemm from resident
    tiles (a layer's last tile may be shorter than :data:`TILE_ROWS`).
    """

    palette_row_blocks: int = 0
    dense_rows: int = 0
    calls: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form for stats reports and benchmark artifacts."""
        return {
            "palette_row_blocks": self.palette_row_blocks,
            "dense_rows": self.dense_rows,
            "calls": self.calls,
        }


class PaletteLinearExec:
    """One eval-mode layer's palette executor: tiled kernel + tile cache.

    Built from the layer's converged palette (``lut`` already projected to
    the serving weight dtype, so palette arithmetic consumes exactly the
    values the dense reconstruction path would) and keyed by the caller on
    the weight storage version -- a weight write invalidates the executor
    wholesale, never silently serves stale tiles.
    """

    def __init__(
        self,
        name: str,
        lut: np.ndarray,
        indices: np.ndarray,
        cache: TileCache,
        version_token: object = None,
        fault_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.name = name
        self.layout = PaletteLayout.build(lut, indices)
        self.cache = cache
        self.version_token = version_token
        self.fault_hook = fault_hook
        self.stats = PaletteExecStats()

    @property
    def nbytes(self) -> int:
        """Execution-layout bytes resident for this layer (tiles are cache)."""
        return self.layout.nbytes

    @property
    def packed_nbytes(self) -> int:
        """Minimal shippable artifact bytes (see :attr:`PaletteLayout.packed_nbytes`)."""
        return self.layout.packed_nbytes

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ W.T`` over all output rows, tile by tile.

        Resident tiles run dense gemm; misses run the palette kernel and
        dequantize the tile into the cache for next time.
        The optional ``fault_hook`` (the server's ``kernel_error``
        probe) runs first with this layer's name so an
        injected :class:`~repro.serving.faults.PaletteKernelError`
        genuinely originates inside the kernel call.
        """
        if self.fault_hook is not None:
            self.fault_hook(self.name)
        x = np.asarray(x, dtype=np.float32)
        out = np.empty((x.shape[0], self.layout.out_features), dtype=np.float32)
        self.stats.calls += 1
        for tile_idx, row_start in enumerate(
            range(0, self.layout.out_features, TILE_ROWS)
        ):
            row_end = min(row_start + TILE_ROWS, self.layout.out_features)
            key = (self.name, self.version_token, tile_idx)
            tile = self.cache.get(key)
            if tile is None:
                self.cache.put(key, self.layout.dequantize_rows(row_start, row_end))
                self.stats.palette_row_blocks += 1
                out[:, row_start:row_end] = palette_matmul(
                    x, self.layout, row_start, row_end
                )
            else:
                self.stats.dense_rows += row_end - row_start
                out[:, row_start:row_end] = x @ tile.T
        return out

    def invalidate(self) -> None:
        """Drop this layer's cached tiles (weight version moved on)."""
        self.cache.invalidate_prefix((self.name, self.version_token))
