"""Palettization: the deployable artifact of weight clustering.

After DKM fine-tuning converges, each weight tensor is hard-assigned to its
nearest centroid and stored as a lookup table (LUT) of ``2**bits`` 16-bit
values plus bit-packed low-precision indices -- the format "supported by
modern smartphones" that the paper targets (CoreML training-time
palettization).  Model-size numbers in Table 3 are sizes of this artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.dtype import DType, bfloat16


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")


def pack_indices(indices: np.ndarray, bits: int) -> np.ndarray:
    """Pack ``bits``-wide integers into a uint8 byte stream (LSB-first).

    Eight indices fill exactly ``bits`` bytes, so each group of eight is
    ORed into one little-endian word (uint32 up to 4 bits, else uint64) at
    shifts ``0, bits, ..., 7 * bits``, and the low ``bits`` bytes of every
    word are the stream.
    """
    _check_bits(bits)
    indices = np.asarray(indices).reshape(-1)
    if indices.dtype.kind not in "biu":
        raise ValueError(f"indices must be integers or bools, got {indices.dtype}")
    # Range-checked before the uint8 cast, which would wrap 256 to 0 and -1 to 255.
    if indices.size:
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= (1 << bits):
            bad = low if low < 0 else high
            raise ValueError(f"index {bad} does not fit in {bits} bits")
    n = indices.size
    lanes = np.zeros((-(-n // 8), 8), dtype=np.uint8)
    lanes.reshape(-1)[:n] = indices
    word = np.dtype("<u4" if bits <= 4 else "<u8")
    words = lanes[:, 0].astype(word)
    for lane in range(1, 8):
        shifted = lanes[:, lane].astype(word)
        np.left_shift(shifted, word.type(lane * bits), out=shifted)
        words |= shifted
    stream = words.view(np.uint8).reshape(-1, word.itemsize)[:, :bits].reshape(-1)
    return stream[: (n * bits + 7) // 8]


def unpack_indices(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_indices` for ``count`` values."""
    _check_bits(bits)
    packed = np.asarray(packed, dtype=np.uint8)
    capacity = 8 * packed.size // bits
    if not 0 <= count <= capacity:
        raise ValueError(
            f"count {count} is outside [0, {capacity}]: {packed.size} bytes "
            f"hold {capacity} {bits}-bit indices"
        )
    as_bits = np.unpackbits(packed, bitorder="little")
    usable = as_bits[: count * bits].reshape(count, bits)
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, :bits] = usable
    return np.packbits(padded, axis=1, bitorder="little").reshape(-1)


@dataclass
class PalettizedTensor:
    """A weight tensor stored as LUT + packed indices."""

    lut: np.ndarray  # (2**bits,) float32 values (stored at 16-bit width)
    packed: np.ndarray  # uint8 byte stream of bit-packed indices
    bits: int
    shape: tuple[int, ...]

    @classmethod
    def from_assignments(
        cls,
        lut: np.ndarray,
        assignments: np.ndarray,
        bits: int,
        shape: tuple[int, ...],
    ) -> "PalettizedTensor":
        """Pack precomputed nearest-centroid ``assignments`` against ``lut``."""
        return cls(
            lut=np.asarray(lut, dtype=np.float32),
            packed=pack_indices(assignments, bits),
            bits=bits,
            shape=tuple(shape),
        )

    @classmethod
    def from_weights(
        cls, weights: np.ndarray, lut: np.ndarray, bits: int
    ) -> "PalettizedTensor":
        """Nearest-centroid hard assignment of ``weights`` onto ``lut``.

        Chunked through :func:`repro.core.dkm.nearest_centroid`, so the
        distance matrix never exceeds a block x ``2**bits`` slab.
        """
        from repro.core.dkm import nearest_centroid

        flat = np.asarray(weights, dtype=np.float32).reshape(-1)
        lut = np.asarray(lut, dtype=np.float32)
        if lut.size > (1 << bits):
            raise ValueError(f"LUT of {lut.size} entries exceeds 2^{bits}")
        assignments = nearest_centroid(flat, lut)
        return cls.from_assignments(lut, assignments, bits, np.asarray(weights).shape)

    @property
    def numel(self) -> int:
        """Number of weight positions the packed indices decode to."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        """Serialized size: packed indices + 16-bit LUT entries."""
        return int(self.packed.size) + 2 * int(self.lut.size)

    @property
    def bits_per_weight(self) -> float:
        """Effective storage cost per weight, LUT amortization included."""
        return 8.0 * self.nbytes / max(self.numel, 1)

    def dequantize(self) -> np.ndarray:
        """Materialize the float32 weight tensor (LUT gather + reshape)."""
        indices = unpack_indices(self.packed, self.bits, self.numel)
        return self.lut[indices].reshape(self.shape).astype(np.float32)

    def __repr__(self) -> str:
        return (
            f"PalettizedTensor(shape={self.shape}, bits={self.bits}, "
            f"nbytes={self.nbytes})"
        )


def kmeans_palettize(
    weights: np.ndarray,
    bits: int,
    iters: int = 25,
    dtype: DType = bfloat16,
) -> PalettizedTensor:
    """Post-training k-means palettization (used for embedding tables).

    Runs plain Lloyd iterations in unique-value space -- the same
    uniquification trick as eDKM, applied to inference-time compression.
    The LUT is projected onto the grid of ``dtype`` (a 16-bit
    :class:`~repro.tensor.dtype.DType`, bf16 as in ``DKMConfig``) before
    the final assignment, so the 2-byte entries ``nbytes`` counts are the
    values ``lut[indices]`` ships.
    Raises :class:`FloatingPointError` for a table holding NaN or inf, as
    ``DKMClusterer.refine`` does for a Linear weight: one would turn every
    LUT entry into NaN, or ship an inf entry.
    """
    from repro.core.dkm import nearest_centroid
    from repro.tensor.ops.segment import segment_sum

    flat = np.asarray(weights, dtype=np.float32).reshape(-1)
    values, counts = np.unique(flat, return_counts=True)
    # Sorted: any -inf is first, and +inf and NaN are last.
    if values.size and not (np.isfinite(values[0]) and np.isfinite(values[-1])):
        n_bad = int(counts[~np.isfinite(values)].sum())
        raise FloatingPointError(
            f"cannot palettize a non-finite weight: {n_bad} of {flat.size} "
            "values are NaN or inf"
        )
    k = 1 << bits
    quantiles = (np.arange(k) + 0.5) / k
    lut = np.quantile(flat, quantiles).astype(np.float32)
    for _ in range(iters):
        assign = nearest_centroid(values, lut)
        sums = segment_sum(values * counts, assign, k)
        weights_per = segment_sum(counts, assign, k)
        new_lut = np.where(weights_per > 0, sums / np.maximum(weights_per, 1), lut)
        if np.allclose(new_lut, lut, atol=1e-10):
            lut = new_lut.astype(np.float32)
            break
        lut = new_lut.astype(np.float32)
    lut = dtype.project(lut).astype(np.float32)
    return PalettizedTensor.from_weights(weights, lut, bits)
