"""Serving eval-mode clustered layers from their palettized weights.

A palettized linear weight ``W`` of shape ``(out, in)`` takes at most
``k = 2**bits`` distinct values -- the palette ``lut`` -- and ships as
that ``lut`` plus one small index per weight position.  A served
:class:`~repro.core.compressor.ClusteredLinear` keeps exactly that (its
eval snapshot) and dequantizes it once per weight version: the first
served call puts ``dense = lut[indices]`` into the server's
:class:`TileCache` as one CRC-32-stamped, read-only entry under the
layer's name; every call reads that entry back (verifying every byte)
and runs one gemm, ``x @ dense.T``.

:class:`PaletteLayout` and :func:`palette_matmul` are the
multiply-by-palette formulation of the same product::

    y[b, o] = sum_i x[b, i] * lut[idx[o, i]]
            = sum_k lut[k] * ( sum_{i : idx[o, i] == k} x[b, i] )

-- a segment sum of activations followed by a ``k``-column mixture.  No
serving code runs it any more; it stays as the reference kernel the
end-to-end benchmark times against the dense gemm.

Everything in this module is plain numpy on host memory -- no tensor
autograd, no device tracking -- because it models the *deployment*
artifact execution, not training.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.serving.faults import CorruptTileError


def _index_dtype(bound: int) -> np.dtype:
    """Smallest unsigned dtype addressing ``bound`` distinct values."""
    if bound <= 1 << 8:
        return np.dtype(np.uint8)
    if bound <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def _checked_indices(lut: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``indices`` as a 2-D ``(out, in)`` array addressing ``lut``, or ValueError."""
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise ValueError(f"indices must be 2-D (out, in), got {indices.shape}")
    if indices.size and int(indices.max()) >= lut.size:
        raise ValueError(
            f"index {int(indices.max())} out of range for a {lut.size}-entry palette"
        )
    return indices


@dataclass(frozen=True)
class PaletteLayout:
    """Precomputed segment structure of one palettized ``(out, in)`` weight.

    ``cols`` lists the *input-column* index of every weight position,
    sorted by ``(output row, palette entry)``; ``bounds`` delimits the
    ``out * k`` segments in that order.
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

    @classmethod
    def build(cls, lut: np.ndarray, indices: np.ndarray) -> "PaletteLayout":
        """Precompute the layout for palette ``lut`` and index matrix ``indices``.

        ``indices`` is the ``(out, in)`` nearest-centroid assignment; the
        sort is a stable counting argsort over ``row * k + idx``, so the
        layout is deterministic for identical inputs.
        """
        lut = np.asarray(lut, dtype=np.float32).reshape(-1)
        indices = _checked_indices(lut, indices)
        out_features, in_features = indices.shape
        k = int(lut.size)
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


def palette_matmul(x: np.ndarray, layout: PaletteLayout) -> np.ndarray:
    """``x @ W.T`` computed against the palette.

    ``x`` is ``(B, in)``; the result is ``(B, out)`` float32.  Per call:
    one ``O(B * out * in)`` activation gather + cumulative sum (additions,
    accumulated in float64 so segment differences stay accurate) and an
    ``O(B * out * k)`` mixture against the palette -- the only multiply
    stage, scaling with ``k`` instead of the dense inner dimension.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != layout.in_features:
        raise ValueError(
            f"x must be (B, {layout.in_features}), got {x.shape}"
        )
    gathered = x[:, layout.cols.astype(np.int64, copy=False)]
    csum = np.zeros((x.shape[0], gathered.shape[1] + 1), dtype=np.float64)
    np.cumsum(gathered, axis=1, dtype=np.float64, out=csum[:, 1:])
    seg_sums = csum[:, layout.bounds[1:]] - csum[:, layout.bounds[:-1]]
    mixed = seg_sums.reshape(x.shape[0], layout.out_features, layout.k) @ (
        layout.lut.astype(np.float64)
    )
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
    """The dequantized weight of every served layer, one entry per layer.

    Shared across a server's layers: each entry sits under its layer's
    name, stamped with the weight version it was built from, and a
    :meth:`put` of a new version replaces it.

    Every entry is stamped with its CRC-32 at :meth:`put`, and every
    :meth:`get` recomputes the stamp over the whole entry: a resident
    weight whose bytes no longer match -- bit-rot, a stray write through
    an aliased view, or the fault injector's :meth:`corrupt_one` -- is
    dropped and surfaced as a typed
    :class:`~repro.serving.faults.CorruptTileError` instead of silently
    serving wrong logits.  The error is a transient step error: the
    scheduler retries the step, which re-dequantizes cleanly.

    The stamp is an error-detecting code, not a cryptographic hash: it
    sits in the same dict entry as the weight, so whoever can write one
    can write the other (preimage resistance buys nothing), and every
    threat above is *accidental* corruption, where CRC-32 guarantees what
    a truncated hash only makes likely -- any burst of at most 32 bits
    (all damage confined to one float32, or to the injector's one byte)
    and any 1- or 2-bit error are always caught, anything else with
    probability ``1 - 2**-32``.  Process-local, never serialized.

    Resident entries are read-only (``put`` clears ``writeable``, ``get``
    returns that same array), so a stray write through one, or through a
    view taken from it, raises ``ValueError`` at the writer; only an
    alias that predates ``put`` can still reach the bytes, and the stamp
    catches that.
    """

    def __init__(self) -> None:
        self._tiles: dict[str, tuple[object, np.ndarray, int]] = {}
        self._resident_bytes = 0
        self.stats = TileCacheStats()

    @staticmethod
    def _digest(tile: np.ndarray) -> int:
        # CRC-32 over the entry's buffer in place: no copy per visit.  A
        # non-contiguous array is refused (ValueError), never copied.
        return zlib.crc32(tile)

    def get(self, name: str, version: object) -> np.ndarray | None:
        """``name``'s entry if it was built from ``version``, else ``None``.

        Raises :class:`~repro.serving.faults.CorruptTileError` (after
        dropping the entry) when its bytes no longer match the CRC-32
        stamped at :meth:`put`.  The returned array is read-only.
        """
        entry = self._tiles.get(name)
        if entry is None or entry[0] != version:
            self.stats.misses += 1
            return None
        _, tile, digest = entry
        if self._digest(tile) != digest:
            del self._tiles[name]
            self._resident_bytes -= int(tile.nbytes)
            self.stats.corruptions += 1
            raise CorruptTileError(name)
        self.stats.hits += 1
        return tile

    def put(self, name: str, version: object, tile: np.ndarray) -> None:
        """Make ``tile`` ``name``'s entry for ``version``, replacing any
        other, and make it read-only: the cache owns it from here on."""
        nbytes = int(tile.nbytes)
        digest = self._digest(tile)
        tile.setflags(write=False)
        old = self._tiles.get(name)
        if old is not None:
            self._resident_bytes -= int(old[1].nbytes)
        self._tiles[name] = (version, tile, digest)
        self._resident_bytes += nbytes
        self.stats.puts += 1

    def holds(self, name: str) -> bool:
        """Whether ``name`` has a resident entry (a poisoning target)."""
        return name in self._tiles

    def corrupt_one(self, name: str) -> bool:
        """Flip one byte of ``name``'s resident entry.

        The fault injector's poisoning primitive (the bit-rot stand-in,
        and the only code that lifts a resident entry's read-only flag):
        the stamp is deliberately *not* refreshed, so the next :meth:`get`
        of that entry detects the corruption.  Returns whether an entry
        was poisoned (``False`` when ``name`` has none).
        """
        entry = self._tiles.get(name)
        if entry is None:
            return False
        tile = entry[1]
        tile.setflags(write=True)
        tile.view(np.uint8).reshape(-1)[0] ^= 0xFF
        tile.setflags(write=False)
        return True

    def clear(self) -> None:
        """Drop every entry (the server closed); the stats stay."""
        self._tiles.clear()
        self._resident_bytes = 0

    def resident_bytes(self) -> int:
        """Bytes currently held by resident entries."""
        return self._resident_bytes

    def __len__(self) -> int:
        return len(self._tiles)
