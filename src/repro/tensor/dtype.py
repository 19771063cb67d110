"""Logical dtypes over numpy physical storage.

The engine distinguishes a dtype's *logical* width (what a real accelerator
would allocate, used for byte accounting) from its *physical* numpy backing.
This is how bfloat16 is simulated: numpy has no bf16, so bf16 tensors are
backed by float32 buffers whose values are truncated to the bf16 grid, while
memory accounting charges 2 bytes per element.

The 16-bit floating dtypes also expose :func:`bit_pattern16`, the exact
mechanism eDKM's weight uniquification keys on: a 16-bit weight tensor has at
most ``2**16`` distinct bit patterns (paper Section 2.2).  Every write into a
bf16 buffer projects, so a stored bf16 buffer is already on the grid -- each
float32's low half is zero -- and :func:`_pattern16_view`, which uniquify
keys on, reads its patterns straight off the high halves
(:func:`_bf16_grid_patterns`) once one contiguous ``uint32`` OR has shown
every low half zero; only off-grid input pays :func:`bit_pattern16`'s
rounding passes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Read at call time, so a test can take the path a big-endian host takes.
_LITTLE_ENDIAN = sys.byteorder == "little"


def _bf16_grid_patterns(array: np.ndarray) -> np.ndarray | None:
    """The bf16 patterns of ``array`` if it is on the bf16 grid, else ``None``.

    On the grid every float32's low half is zero; the pattern is then the
    high half, returned as a strided ``uint16`` view (shape of ``array``,
    at least 1-D) into ``array``'s buffer, or into its float32 copy when
    ``array`` is not a C-contiguous float32 array.  Round-to-nearest-even
    is the identity there for every pattern, NaN, +-inf and ``0xFFFF``
    included: a zero low half plus a bias of at most ``0x8000`` never
    carries into the high half.  ``None`` when any low half is set, and on
    a big-endian host, where the high half is the first of the pair.

    The check is one ``bitwise_or`` reduction over the buffer viewed as
    ``uint32``, a contiguous pass: every low half is zero exactly when the
    low half of the OR of all the words is.
    """
    if not _LITTLE_ENDIAN:
        return None
    buf = np.ascontiguousarray(array, dtype=np.float32)
    if np.bitwise_or.reduce(buf.view(np.uint32), axis=None) & 0xFFFF:
        return None
    return buf.view(np.uint16)[..., 1::2]


def _bf16_rounded_bits(array: np.ndarray) -> np.ndarray:
    """fp32 bits of ``array`` after the round-to-nearest-even bias is added.

    The high half of each uint32 is the bf16 pattern; the low half is
    whatever the carry left behind and must be masked or shifted away.
    """
    bits = np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)
    rounded = bits >> 16
    rounded &= 1
    rounded += np.uint32(0x7FFF)
    rounded += bits
    return rounded


def _truncate_to_bf16(array: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even truncation of fp32 values onto the bf16 grid."""
    rounded = _bf16_rounded_bits(array)
    rounded &= np.uint32(0xFFFF0000)
    return rounded.view(np.float32)


@dataclass(frozen=True)
class DType:
    """A logical element type.

    Attributes:
        name: canonical name, e.g. ``"bfloat16"``.
        itemsize: logical bytes per element, used for memory accounting.
        np_storage: numpy dtype physically backing the buffer.
        np_compute: numpy dtype arithmetic is performed in.
        quantize: optional projection applied to values entering storage
            (identity for natively representable dtypes).
        is_floating: whether the dtype is a floating-point type.
    """

    name: str
    itemsize: int
    np_storage: np.dtype
    np_compute: np.dtype
    quantize: Callable[[np.ndarray], np.ndarray] | None
    is_floating: bool

    def project(self, array: np.ndarray) -> np.ndarray:
        """Project raw values onto this dtype's representable grid."""
        out = np.asarray(array, dtype=self.np_storage)
        if self.quantize is not None:
            out = self.quantize(out)
        return out

    def __reduce__(self):
        """Pickle by name so unpickling returns the interned singleton.

        Dispatch throughout the engine compares dtypes by identity
        (``dtype is bfloat16``); a structurally-pickled copy -- e.g. inside
        a pickled ``DKMConfig`` -- would silently fail every such check.
        """
        return (get_dtype, (self.name,))

    def __repr__(self) -> str:
        return f"repro.{self.name}"


float32 = DType(
    name="float32",
    itemsize=4,
    np_storage=np.dtype(np.float32),
    np_compute=np.dtype(np.float32),
    quantize=None,
    is_floating=True,
)

float16 = DType(
    name="float16",
    itemsize=2,
    np_storage=np.dtype(np.float16),
    np_compute=np.dtype(np.float32),
    quantize=None,
    is_floating=True,
)

bfloat16 = DType(
    name="bfloat16",
    itemsize=2,
    np_storage=np.dtype(np.float32),
    np_compute=np.dtype(np.float32),
    quantize=_truncate_to_bf16,
    is_floating=True,
)

float64 = DType(
    name="float64",
    itemsize=8,
    np_storage=np.dtype(np.float64),
    np_compute=np.dtype(np.float64),
    quantize=None,
    is_floating=True,
)

int64 = DType(
    name="int64",
    itemsize=8,
    np_storage=np.dtype(np.int64),
    np_compute=np.dtype(np.int64),
    quantize=None,
    is_floating=False,
)

int32 = DType(
    name="int32",
    itemsize=4,
    np_storage=np.dtype(np.int32),
    np_compute=np.dtype(np.int32),
    quantize=None,
    is_floating=False,
)

uint16 = DType(
    name="uint16",
    itemsize=2,
    np_storage=np.dtype(np.uint16),
    np_compute=np.dtype(np.uint16),
    quantize=None,
    is_floating=False,
)

uint8 = DType(
    name="uint8",
    itemsize=1,
    np_storage=np.dtype(np.uint8),
    np_compute=np.dtype(np.uint8),
    quantize=None,
    is_floating=False,
)

bool_ = DType(
    name="bool",
    itemsize=1,
    np_storage=np.dtype(np.bool_),
    np_compute=np.dtype(np.bool_),
    quantize=None,
    is_floating=False,
)

_ALL = {
    d.name: d
    for d in (float64, float32, float16, bfloat16, int64, int32, uint16, uint8, bool_)
}
_ALIASES = {"float": "float32", "half": "float16", "bf16": "bfloat16", "fp16": "float16"}


def get_dtype(spec: "DType | str") -> DType:
    """Resolve a dtype object or name (with common aliases) to a DType."""
    if isinstance(spec, DType):
        return spec
    name = _ALIASES.get(spec, spec)
    try:
        return _ALL[name]
    except KeyError:
        raise ValueError(f"unknown dtype {spec!r}; known: {sorted(_ALL)}") from None


def from_numpy_dtype(np_dtype: np.dtype) -> DType:
    """Best-effort mapping from a numpy dtype to a logical DType."""
    np_dtype = np.dtype(np_dtype)
    for candidate in (float64, float32, float16, int64, int32, uint16, uint8, bool_):
        if candidate.np_storage == np_dtype:
            return candidate
    if np_dtype.kind == "i":
        return int64
    if np_dtype.kind == "u":
        return uint16
    if np_dtype.kind == "f":
        return float32
    if np_dtype.kind == "b":
        return bool_
    raise ValueError(f"no logical dtype for numpy dtype {np_dtype}")


def promote(a: DType, b: DType) -> DType:
    """Result dtype of a binary op between ``a`` and ``b``.

    Floats dominate ints; among floats the wider wins; the fp16/bf16 pair
    (equal width, different grids) promotes to float32.  Dtypes are
    interned (:meth:`DType.__reduce__` keeps them so across pickling), so
    identity and width decide without hashing.
    """
    if a is b:
        return a
    if a.is_floating is not b.is_floating:
        return a if a.is_floating else b
    if a.itemsize != b.itemsize:
        return a if a.itemsize > b.itemsize else b
    # Equal widths: the fp16/bf16 pair, or two integral dtypes (the first wins).
    return float32 if a.is_floating else a


def bit_pattern16(array: np.ndarray, dtype: DType) -> np.ndarray:
    """The 16-bit pattern of each element, as a uint16 array.

    This is the uniquification key from the paper: two weights with equal bit
    patterns provably receive identical attention rows, so the attention map
    collapses to one row per distinct pattern.
    """
    if dtype is float16:
        return np.ascontiguousarray(array, dtype=np.float16).view(np.uint16).copy()
    if dtype is bfloat16:
        rounded = _bf16_rounded_bits(array)
        rounded >>= 16
        return rounded.astype(np.uint16)
    raise ValueError(
        f"bit_pattern16 requires a 16-bit floating dtype, got {dtype.name}"
    )


def _pattern16_view(array: np.ndarray, dtype: DType) -> np.ndarray:
    """:func:`bit_pattern16`'s patterns, without the rounding passes when possible.

    For bf16 ``array`` on the grid this is :func:`_bf16_grid_patterns`'
    strided view, which may share ``array``'s buffer: read it, never write
    it.  Otherwise (float16, off-grid input, a big-endian host) it is
    :func:`bit_pattern16`'s fresh array.  The patterns are equal either way.
    """
    if dtype is bfloat16:
        on_grid = _bf16_grid_patterns(array)
        if on_grid is not None:
            return on_grid
    return bit_pattern16(array, dtype)


def decode_pattern16(patterns: np.ndarray, dtype: DType) -> np.ndarray:
    """Inverse of :func:`bit_pattern16`: patterns back to float32 values."""
    patterns = np.ascontiguousarray(patterns, dtype=np.uint16)
    if dtype is float16:
        return patterns.view(np.float16).astype(np.float32)
    if dtype is bfloat16:
        return (patterns.astype(np.uint32) << 16).view(np.float32).copy()
    raise ValueError(
        f"decode_pattern16 requires a 16-bit floating dtype, got {dtype.name}"
    )
