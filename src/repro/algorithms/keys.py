"""The canonical key codec: one order for every exact top-k kernel.

Radix-based algorithms operate on the *bits* of a key.  For the comparison
order of the bits to match the numeric order of the values, keys must be
transformed (Section 2.2 / the GGKS selection package use the same trick):

* unsigned integers — identity;
* signed integers — flip the sign bit;
* IEEE-754 floats — flip the sign bit for non-negative values, flip *all*
  bits for negative values.

:func:`encode` makes the transform canonical: -0.0 takes +0.0's code and
every NaN takes code 0, below -inf's.  Code order is then the oracle's value
order (:func:`repro.algorithms.base.reference_topk`: value descending, -0.0
equal to +0.0, NaN last), and rows break ties: the canonical order is code
descending, then row ascending (:func:`canonical_order`), and every exact
path cuts to k with :func:`canonical_topk`.

The comparison kernels carry the row inside the key (:func:`sort_keys`), as
the key+value runs of Section 6.6 do: data of 32 bits or less ranks one
``uint64`` per row, ``code << 32 | (2^32 - 1 - row)``, so descending key
order *is* the canonical order; 64-bit data ranks its codes with the row as
a second key.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError

#: Bits per key for each supported dtype.
_WIDTHS = {
    np.dtype(np.float32): 32,
    np.dtype(np.uint32): 32,
    np.dtype(np.int32): 32,
    np.dtype(np.float64): 64,
    np.dtype(np.uint64): 64,
    np.dtype(np.int64): 64,
}

_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_SIGNED = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}

#: Key layouts (:func:`layout`): one packed ``uint64`` per row for data of
#: 32 bits or less; codes plus a column key for 64-bit data.
PACKED = "packed"
CODES_AND_COLUMNS = "codes+column"

#: Bits a packed key gives the row.
ROW_BITS = 32
_ROW_MASK = np.uint64((1 << ROW_BITS) - 1)

#: Byte bound of the cached packed row column (:func:`_packed_rows`).
_ROW_COLUMN_BYTES = 2 << 20
_row_column = np.empty(0, dtype=np.uint64)


def key_bits(dtype: np.dtype) -> int:
    """Key width in bits (32 or 64)."""
    try:
        return _WIDTHS[np.dtype(dtype)]
    except KeyError:
        raise InvalidParameterError(f"unsupported radix key dtype {dtype}") from None


def key_bytes(dtype: np.dtype) -> int:
    """Key width in bytes — the w parameter of the Section 7 cost model."""
    return key_bits(dtype) // 8


def encode(values: np.ndarray) -> np.ndarray:
    """Map values to unsigned codes whose order is the canonical value order.

    -0.0 encodes as +0.0 and every NaN as 0, the lowest code.
    """
    dtype = values.dtype
    if dtype.kind not in "uif" or dtype.itemsize not in _UNSIGNED:
        raise InvalidParameterError(f"unsupported radix key dtype {dtype}")
    unsigned = _UNSIGNED[dtype.itemsize]
    if dtype.kind == "u":
        return values.astype(unsigned)
    top_bit = 8 * dtype.itemsize - 1
    sign = unsigned(1 << top_bit)
    if dtype.kind == "i":
        return values.view(unsigned) ^ sign
    codes = (values + dtype.type(0)).view(unsigned)  # -0.0 + 0.0 is +0.0
    mask = (codes.view(_SIGNED[dtype.itemsize]) >> top_bit).view(unsigned)
    mask |= sign
    codes ^= mask
    nan = np.isnan(values)
    if nan.any():
        codes[nan] = 0
    return codes


def decode(codes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`encode` back to the original dtype (code 0 of a float
    decodes to a NaN)."""
    dtype = np.dtype(dtype)
    if dtype == np.uint32 or dtype == np.uint64:
        return codes.astype(dtype, copy=True)
    if dtype == np.int32:
        return (codes.astype(np.uint32) ^ np.uint32(1 << 31)).view(np.int32)
    if dtype == np.int64:
        return (codes.astype(np.uint64) ^ np.uint64(1 << 63)).view(np.int64)
    if dtype == np.float32:
        codes = codes.astype(np.uint32)
        mask = np.where(
            codes >> np.uint32(31) == 1,
            np.uint32(1 << 31),
            np.uint32(0xFFFFFFFF),
        )
        return (codes ^ mask).view(np.float32)
    if dtype == np.float64:
        codes = codes.astype(np.uint64)
        mask = np.where(
            codes >> np.uint64(63) == 1,
            np.uint64(1 << 63),
            np.uint64(0xFFFFFFFFFFFFFFFF),
        )
        return (codes ^ mask).view(np.float64)
    raise InvalidParameterError(f"unsupported radix key dtype {dtype}")


def canonical_order(codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices sorting ``(codes, rows)`` canonically: code descending, then
    row ascending (``~code`` ascending is code descending)."""
    return np.lexsort((rows, ~codes))


def canonical_topk(codes: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Indices of the first ``k`` rows of :func:`canonical_order`.

    One partition finds the k-th largest code, and only the c rows at or
    above it are sorted: O(n + c log c) instead of a full sort.  A row
    below the k-th code has at least k rows ahead of it, so the answer is
    ``canonical_order(codes, rows)[:k]`` exactly.
    """
    n = len(codes)
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    kth = np.partition(codes, n - k)[n - k]
    candidates = np.flatnonzero(codes >= kth)
    order = canonical_order(codes[candidates], rows[candidates])
    return candidates[order[:k]]


def layout(dtype: np.dtype) -> str:
    """The key layout :func:`sort_keys` builds for ``dtype``: rows of one
    layout can share a tile."""
    return PACKED if np.dtype(dtype).itemsize <= 4 else CODES_AND_COLUMNS


def sort_keys(
    data: np.ndarray, width: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The keys the comparison kernels rank, padded to ``width`` columns.

    Works along the last axis of one row or a ``(rows, n)`` batch.  Returns
    ``(keys, rows)``: for data of 32 bits or less the packed ``uint64`` keys
    and ``None``; for 64-bit data the codes and each slot's column, the
    second key.  A padding slot is key 0 with a column of at least n, so it
    ranks below every real row, NaN rows included.
    """
    n = data.shape[-1]
    width = n if width is None else width
    codes = np.empty(data.shape[:-1] + (width,), dtype=np.uint64)
    codes[..., :n] = encode(data)
    codes[..., n:] = 0
    return _with_columns(codes, data.dtype, n)


def tile_keys(
    rows: Sequence[np.ndarray], width: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`sort_keys` of a tile: one ``width``-column row per row of
    ``rows`` (a 2-D array, or 1-D rows whose lengths may differ and whose
    dtypes share one :func:`layout`).

    Each dtype is encoded once, over the concatenation of its rows.  The
    slots past a row's length are padding, as in :func:`sort_keys`.
    """
    if isinstance(rows, np.ndarray):
        return sort_keys(rows, width)
    lengths = np.fromiter((len(row) for row in rows), np.int64, len(rows))
    real = np.arange(width) < lengths[:, None]
    codes = np.zeros(real.shape, dtype=np.uint64)
    dtypes = [row.dtype for row in rows]
    for dtype in set(dtypes):
        same = [other == dtype for other in dtypes]
        mask = real if all(same) else real & np.array(same)[:, None]
        codes[mask] = encode(np.concatenate(list(compress(rows, same))))
    return _with_columns(codes, dtypes[0], int(lengths.max()))


def _with_columns(
    codes: np.ndarray, dtype: np.dtype, n: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """``codes`` (0 in every padding slot) with each slot's column as the
    second key: packed into the codes for data of 32 bits or less, else
    returned beside them.  Packing stops at ``n``, the longest row: the
    slots past it stay key 0, whose packed column is ``2^32 - 1``."""
    width = codes.shape[-1]
    if layout(dtype) == PACKED and width <= 1 << ROW_BITS:
        real = codes[..., :n]
        real <<= np.uint64(ROW_BITS)
        real |= _packed_rows(n)
        return codes, None
    row_dtype = np.int32 if width <= np.iinfo(np.int32).max else np.int64
    rows = np.broadcast_to(np.arange(width, dtype=row_dtype), codes.shape).copy()
    return codes, rows


def _packed_rows(n: int) -> np.ndarray:
    """The low halves of the first ``n`` packed keys, ``2^32 - 1 - column``.

    Sliced from one read-only column, rebuilt at the next power of two
    when a larger ``n`` asks for it, as long as that fits
    :data:`_ROW_COLUMN_BYTES`; a larger ``n`` builds its own.
    """
    global _row_column
    if len(_row_column) >= n:
        return _row_column[:n]
    size = 1 << (n - 1).bit_length()
    cached = size * _row_column.itemsize <= _ROW_COLUMN_BYTES
    top = int(_ROW_MASK)
    column = np.arange(top, top - (size if cached else n), -1, dtype=np.uint64)
    if cached:
        column.flags.writeable = False
        _row_column = column
    return column[:n]


def key_rows(keys: np.ndarray, rows: np.ndarray | None, k: int) -> np.ndarray:
    """The columns of the first ``k`` :func:`sort_keys` keys, as int64."""
    if rows is None:
        return (~keys[..., :k] & _ROW_MASK).astype(np.int64)
    return rows[..., :k].astype(np.int64)


def digit(codes: np.ndarray, shift: int, digit_bits: int = 8) -> np.ndarray:
    """Extract the digit at bit offset ``shift`` as small integers."""
    if shift < 0 or digit_bits <= 0:
        raise InvalidParameterError("shift must be >= 0 and digit_bits > 0")
    mask = (1 << digit_bits) - 1
    return ((codes >> codes.dtype.type(shift)) & codes.dtype.type(mask)).astype(
        np.int64
    )
