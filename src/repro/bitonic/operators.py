"""Vectorized executors for the three bitonic top-k operators.

:func:`apply_step`, :func:`local_sort`, :func:`merge` and :func:`rebuild`
run the step sequences of :mod:`repro.bitonic.network` with numpy — one
array operation per massively parallel step, the same dataflow the GPU
executes (each element of the numpy expression is one thread's
compare-exchange).  They are the network's step-by-step reference.

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
gather.

:func:`reduce_topk` computes the network's output without stepping it.  A
local sort or a rebuild is a sorting network applied to each k-run, and on
keys that are distinct (or equal only where their bits are) a sorting
network has one possible output: the sorted run.  So the reduction sorts
every k-run, runs the paper's merge, re-sorts, and repeats — bit-identical
to stepping.  The top-k kernels rank exactly such keys: each row rides in
its key or in the payload, and every padding key is 0.  On packed keys
(integers, no payload) the merge's keep-the-larger compare-exchange
against the reversed partner run is one ``np.maximum``, and the levels
alternate between two buffers, sorted in place; float and payload rows
keep the branch-free bit blend (``_less``/``_select``): ``maximum``
propagates NaN, and a payload breaks ties that ``maximum`` cannot see.
The simulated cost never reads the data (Section 6.4):
:func:`repro.bitonic.kernels.build_trace` prices the network's steps from
n, k, item size and flags alone.

All operators optionally carry a payload of signed row ids through the
same exchanges, supporting the key+value experiments of Section 6.6.  The
payload is also the second key: equal values order the lower payload
first (descending), so a tie never leaves the exchange to chance.  The
top-k kernels pass it only for 64-bit data; narrower data packs the row
into a ``uint64`` key (:func:`repro.algorithms.keys.sort_keys`) and runs
without one.
"""

from __future__ import annotations

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
    values: np.ndarray, step: Step, payload: np.ndarray | None = None
) -> None:
    """Apply one compare-exchange step in place.

    ``values`` and ``payload`` (the second key) are 1-D, in the network's
    logical order.
    """
    n = len(values)
    if n % (2 * step.inc) != 0:
        raise InvalidParameterError(
            f"array length {n} is not a multiple of the step block {2 * step.inc}"
        )
    pairs = values.reshape(-1, 2, step.inc)
    if step.direction_period < n:
        # Blocks never straddle a run, so a block's first lower partner
        # carries the direction bit for the whole block.
        block_bit = step.direction_period // (2 * step.inc)
        reverse = _ascending(len(pairs), block_bit)[:, None]
    else:
        reverse = True  # the period spans the whole buffer
    payload_pairs = payload.reshape(pairs.shape) if payload is not None else None
    swap = _less(pairs, payload_pairs)
    swap ^= reverse
    _exchange(pairs, swap)
    if payload_pairs is not None:
        _exchange(payload_pairs, swap)


def local_sort(values: np.ndarray, k: int, payload: np.ndarray | None = None) -> None:
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


def rebuild(values: np.ndarray, k: int, payload: np.ndarray | None = None) -> None:
    """Re-sort length-k bitonic sequences into alternating runs, in place."""
    if len(values) % max(k, 2) != 0 and k > 1:
        raise InvalidParameterError("array length must be a multiple of k")
    for step in rebuild_steps(k):
        apply_step(values, step, payload)


def _sort_runs(
    values: np.ndarray, payload: np.ndarray | None, k: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Copies of ``values`` (and ``payload``) as ``(runs, k)`` arrays, each
    run sorted ascending in the network's order: value ascending, the higher
    payload first among equal values."""
    runs = values.reshape(-1, k)
    if payload is None:
        return np.sort(runs, axis=-1), None
    payload = payload.reshape(-1, k)
    order = np.lexsort((-payload, runs), axis=-1)
    return np.take_along_axis(runs, order, -1), np.take_along_axis(payload, order, -1)


def _reduce_by_max(values: np.ndarray, k: int, rows: int) -> np.ndarray:
    """:func:`reduce_topk` of integer keys without a payload: each row's
    top-k as one ascending run of a ``(rows, k)`` array.

    Equal integer keys are equal bits, so the merge's keep-the-larger
    compare-exchange against the reversed partner run is one ``np.maximum``.
    The levels alternate between the sorted copy of ``values`` and one
    spare buffer of half its size, each level's runs sorted in place.
    """
    runs = values.copy().reshape(-1, k)
    runs.sort(axis=-1)
    if len(runs) == rows:
        return runs
    spare = np.empty((len(runs) // 2, k), runs.dtype)
    while len(runs) > rows:
        merged = spare[: len(runs) // 2]
        np.maximum(runs[0::2], runs[1::2, ::-1], out=merged)
        merged.sort(axis=-1)
        runs, spare = merged, runs
    return runs.copy()


def reduce_topk(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The full operator pipeline: local sort, then merge+rebuild to k elements.

    ``values`` is one row or a ``(rows, n)`` batch, each row reduced
    independently.  Local sort and rebuild are run sorts (see the module
    docstring); between them the paper's merge halves the runs.  The inputs
    are left unchanged; the returned arrays hold each row's top-k (sorted
    descending, the lower payload first on ties) and the corresponding
    payload entries.
    """
    validate_power_of_two(k, "k")
    n = values.shape[-1]
    validate_power_of_two(n, "n")
    if k > n:
        raise InvalidParameterError("k cannot exceed the (padded) input size")
    shape = values.shape[:-1] + (k,)
    if payload is None and values.dtype.kind in "iu":
        runs = _reduce_by_max(values, k, values.size // n)
        return runs.reshape(shape)[..., ::-1], None
    runs, payload = _sort_runs(values, payload, k)
    while len(runs) > values.size // n:
        # The merge pairs run 2j ascending with run 2j + 1 descending.
        runs[1::2] = runs[1::2, ::-1]
        if payload is not None:
            payload[1::2] = payload[1::2, ::-1]
        runs, payload = _sort_runs(*merge(runs.reshape(-1), k, payload), k)
    top = runs.reshape(shape)[..., ::-1]
    return top, None if payload is None else payload.reshape(shape)[..., ::-1]
