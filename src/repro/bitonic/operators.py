"""Vectorized executors for the three bitonic top-k operators.

These run the step sequences of :mod:`repro.bitonic.network` with numpy —
one array operation per massively parallel step, which is the same dataflow
the GPU executes (each element of the numpy expression corresponds to one
thread's compare-exchange).

Conventions (matching the paper's Algorithms 2-4):

* a step compares ``L[i]`` with ``L[i + inc]``; index ``i`` enumerates the
  lower partner of each pair;
* ``reverse = ((direction_period & i) == 0)``; ``swap = reverse XOR
  (L[i] < L[i + inc])``.  With ``reverse`` false the larger value moves to
  the *lower* index (descending run), with ``reverse`` true to the higher
  index (ascending run).  Local sort therefore produces runs alternating
  ascending-then-descending, which is exactly what the merge needs;
* the merge compares ``L[i]`` and ``L[i + k]`` for each pair of adjacent
  length-k runs and keeps the maxima, compacted, which form a *bitonic*
  sequence containing the top-k of the pair — the key insight of
  Section 3.2.

Every step runs on block views — the lower partners are the first ``inc``
slots of each ``2 * inc`` block — with a branch-free XOR swap, never a
gather.  :func:`reduce_topk` keeps its buffer **tile-major**: each row's
``m = n / k`` runs are transposed once into a ``(k, m)`` tile whose column
``c`` holds run ``c``.  Partners ``p`` and ``p + inc`` of every run are
then whole tile rows, so a local-sort or rebuild step exchanges contiguous
row blocks across all runs and batch rows at once; its direction is a row
bit (``direction_period < k``) or the column's parity
(``direction_period == k``).  Runs ``2j`` and ``2j + 1`` sit in adjacent
columns, so the merge pairs columns and leaves run ``j`` in column ``j``
of the half-width tile.  This is the functional analogue of Section 4.3's
shared-memory combined steps, where a thread block keeps its k-run
resident through all of that run's steps.  The exchange decisions are the
network's own, so results are bit-identical to stepping the logical order.

All operators optionally carry a payload of signed row ids through the
same exchanges, supporting the key+value experiments of Section 6.6.  The
payload is also the second key: equal values order the lower payload
first (descending), so a tie never leaves the exchange to chance.  The
top-k kernels pass it only for 64-bit data; narrower data packs the row
into a ``uint64`` key (:func:`repro.algorithms.keys.sort_keys`) and runs
without one.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.bitonic.network import (
    Step,
    local_sort_steps,
    rebuild_steps,
    validate_power_of_two,
)
from repro.errors import InvalidParameterError


def _ascending(count: int, bit: int) -> np.ndarray:
    """Which of ``count`` blocks run ascending: those with ``bit`` clear."""
    return (np.arange(count) & bit) == 0


#: Tile masks are few and small; logical-order masks can be long, so uncached.
_tile_ascending = functools.lru_cache(maxsize=256)(_ascending)

_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _bits(array: np.ndarray) -> np.ndarray:
    return array.view(_UNSIGNED[array.itemsize])


def _exchange(pairs: np.ndarray, swap: np.ndarray) -> None:
    """Swap the two halves of ``pairs`` (axis 1) in place where ``swap``
    holds: an XOR swap of the bit patterns, exact for every dtype and
    branch-free."""
    bits = _bits(pairs)
    diff = bits[:, 0] ^ bits[:, 1]
    diff *= swap
    bits ^= diff[:, np.newaxis]


def _select(first: np.ndarray, second: np.ndarray, keep_first: np.ndarray):
    """``np.where(keep_first, first, second)`` as a branch-free bit blend."""
    blend = _bits(first) ^ _bits(second)
    blend *= keep_first
    blend ^= _bits(second)
    return blend.view(first.dtype)


def _less(pairs: np.ndarray, payload_pairs: np.ndarray | None) -> np.ndarray:
    """Where the first half of ``pairs`` ranks below the second: a lower
    value, or an equal value with a higher payload."""
    less = np.less(pairs[:, 0], pairs[:, 1])
    if payload_pairs is not None:
        tied = np.equal(pairs[:, 0], pairs[:, 1])
        tied &= payload_pairs[:, 0] > payload_pairs[:, 1]
        less |= tied
    return less


def apply_step(
    values: np.ndarray,
    step: Step,
    payload: np.ndarray | None = None,
    *,
    tile: tuple[int, int] | None = None,
) -> None:
    """Apply one compare-exchange step in place.

    ``values`` and ``payload`` (the second key) are 1-D, by default in the
    network's logical order.  ``tile=(k, m)`` marks them as the flattened
    tile-major buffer of :func:`reduce_topk`: consecutive ``(k, m)`` tiles,
    column ``c`` holding run ``c``.
    """
    n = len(values)
    run, columns = tile or (n, 1)
    if run % (2 * step.inc) != 0 or (tile and n % (run * columns) != 0):
        raise InvalidParameterError(
            f"array length {n} is not a multiple of the step block {2 * step.inc}"
        )
    pairs = values.reshape(-1, 2, step.inc, columns)
    if step.direction_period < run:
        # Blocks never straddle a run, so a block's first lower partner
        # carries the direction bit for the whole block.
        ascending = _tile_ascending if tile else _ascending
        block_bit = step.direction_period // (2 * step.inc)
        reverse = ascending(len(pairs), block_bit)[:, None, None]
    elif tile:
        # Column c holds run c: the direction is a bit of the column index.
        reverse = _tile_ascending(columns, step.direction_period // run)
    else:
        reverse = True  # the period spans the whole buffer
    payload_pairs = payload.reshape(pairs.shape) if payload is not None else None
    swap = _less(pairs, payload_pairs)
    swap ^= reverse
    _exchange(pairs, swap)
    if payload_pairs is not None:
        _exchange(payload_pairs, swap)


def local_sort(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> None:
    """Sort ``values`` in place into alternating runs of length ``k``."""
    if len(values) % max(k, 2) != 0:
        raise InvalidParameterError("array length must be a multiple of k")
    for step in local_sort_steps(k):
        apply_step(values, step, payload)


def merge(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Merge adjacent run pairs, keeping the larger half of each pair.

    Input: alternating sorted runs of length k (2m runs).  Output: m
    length-k *bitonic* sequences, each containing the top-k of its pair.
    Returns new (values, payload) arrays of half the length.
    """
    validate_power_of_two(k, "k")
    n = len(values)
    if n % (2 * k) != 0:
        raise InvalidParameterError(
            f"array length {n} is not a multiple of a run pair (2k = {2 * k})"
        )
    pairs = values.reshape(-1, 2, k)
    payload_pairs = payload.reshape(-1, 2, k) if payload is not None else None
    keep_first = ~_less(pairs, payload_pairs)
    merged = _select(pairs[:, 0], pairs[:, 1], keep_first).reshape(-1)
    merged_payload = None
    if payload_pairs is not None:
        merged_payload = _select(
            payload_pairs[:, 0], payload_pairs[:, 1], keep_first
        ).reshape(-1)
    return merged, merged_payload


def rebuild(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> None:
    """Re-sort length-k bitonic sequences into alternating runs, in place."""
    if len(values) % max(k, 2) != 0 and k > 1:
        raise InvalidParameterError("array length must be a multiple of k")
    for step in rebuild_steps(k):
        apply_step(values, step, payload)


def _reduce_tiles(
    values: np.ndarray, k: int, payload: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Local sort, then merge+rebuild down to one run, on tile-major rows:
    ``(rows, n)`` in, each row's surviving bitonic k-sequence out."""
    rows, n = values.shape
    runs = n // k

    def to_tiles(array: np.ndarray) -> np.ndarray:
        return array.reshape(rows, runs, k).transpose(0, 2, 1).reshape(-1)

    values = to_tiles(values)
    if payload is not None:
        payload = to_tiles(payload)
    for step in local_sort_steps(k):
        apply_step(values, step, payload, tile=(k, runs))
    rebuild = rebuild_steps(k)
    while runs > 1:
        runs //= 2
        values, payload = merge(values, 1, payload)  # adjacent columns
        if runs > 1:
            for step in rebuild:
                apply_step(values, step, payload, tile=(k, runs))
    return values.reshape(rows, k), (
        payload.reshape(rows, k) if payload is not None else None
    )


def reduce_topk(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The full operator pipeline: local sort, then merge+rebuild to k elements.

    ``values`` is one row or a ``(rows, n)`` batch, each row reduced
    independently; a 1-D input is a batch of one.  The inputs are left
    unchanged; the returned arrays hold each row's top-k (sorted
    descending, the lower payload first on ties) and the corresponding
    payload entries.
    """
    validate_power_of_two(k, "k")
    single = values.ndim == 1
    if single:
        values = values[np.newaxis]
        payload = payload[np.newaxis] if payload is not None else None
    n = values.shape[1]
    validate_power_of_two(n, "n")
    if k > n:
        raise InvalidParameterError("k cannot exceed the (padded) input size")
    if k < n:
        values, payload = _reduce_tiles(values, k, payload)
    # The final k survivors form one bitonic sequence; sort them descending,
    # the lower payload first among equal values.
    if payload is None:
        top, top_payload = np.sort(values, axis=1)[:, ::-1], None
    else:
        order = np.lexsort((-payload, values), axis=1)[:, ::-1]
        top = np.take_along_axis(values, order, axis=1)
        top_payload = np.take_along_axis(payload, order, axis=1)
    if single:
        return top[0], top_payload[0] if top_payload is not None else None
    return top, top_payload
