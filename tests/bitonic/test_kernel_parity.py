"""Differential parity of the run-sort reduction against a gather executor.

``_reference_reduce`` steps the network in logical order with fancy-index
gathers, comparing (value, payload) pairs: a lower value, or an equal value
with a higher payload, ranks lower.  ``reduce_topk`` sorts each k-run
instead of stepping it; on keys that are distinct, or equal only where
their bits are, it must reproduce the stepped network exactly: bit-identical
values and payload, single-row and batched.  Two input axes cover it: raw
values of every dtype family with the NaN-free special floats and a
distinct payload, and the kernels' own keys (``keys.sort_keys`` and
``keys.tile_keys``, packed and with a column payload) with NaN, padding
slots and ragged rows.

The compare-exchange counts are pinned on the step reference:
``local_sort``, ``merge`` and ``rebuild`` in logical order step the
network's comparisons through ``apply_step``, which is what
``bitonic.compare_exchanges`` counts in a traced run.  A work guard checks
that the top-k front doors never step.

Integer keys without a payload merge by ``np.maximum`` in two buffers; a
float row without a payload keeps the bit blend, which a NaN case pins,
and a ``tracemalloc`` guard bounds what the packed reduction allocates.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import keys
from repro.algorithms.base import reference_topk
from repro.bitonic import operators
from repro.bitonic.network import (
    comparisons_per_step,
    local_sort_steps,
    rebuild_steps,
    topk_total_comparisons,
)
from repro.bitonic.operators import local_sort, merge, rebuild, reduce_topk
from repro.bitonic.topk import BitonicTopK
from repro.core.batched import RaggedRows, batched_topk


def _less(a, b, payload_a, payload_b):
    return (a < b) | ((a == b) & (payload_a > payload_b))


def _gather_step(values, step, payload):
    t = np.arange(len(values) // 2)
    i = (t << 1) - (t & (step.inc - 1))
    partner = i + step.inc
    less = _less(values[i], values[partner], payload[i], payload[partner])
    swap = np.logical_xor((i & step.direction_period) == 0, less)
    for array in (values, payload):
        left, right = array[i], array[partner]
        array[i] = np.where(swap, right, left)
        array[partner] = np.where(swap, left, right)


def _reference_reduce(values, k, payload):
    if k < len(values):
        for step in local_sort_steps(k):
            _gather_step(values, step, payload)
    while len(values) > k:
        pairs, payload_pairs = values.reshape(-1, 2, k), payload.reshape(-1, 2, k)
        keep = ~_less(
            pairs[:, 0], pairs[:, 1], payload_pairs[:, 0], payload_pairs[:, 1]
        )
        values = np.where(keep, pairs[:, 0], pairs[:, 1]).reshape(-1)
        payload = np.where(keep, payload_pairs[:, 0], payload_pairs[:, 1]).reshape(-1)
        if len(values) > k:
            for step in rebuild_steps(k):
                _gather_step(values, step, payload)
    order = np.lexsort((-payload, values))[::-1]
    return values[order], payload[order]


def _matrix(dtype, rows, n, seed, duplicates, nan=False):
    generator = np.random.default_rng(seed)
    if np.dtype(dtype).kind != "f":
        high = 3 if duplicates else np.iinfo(dtype).max
        return generator.integers(0, high, (rows, n), endpoint=True).astype(dtype)
    if duplicates:
        pool = [-np.inf, -0.0, 0.0, 1.5, np.inf] + [np.nan] * nan
        return generator.choice(np.array(pool, dtype=dtype), (rows, n))
    matrix = generator.standard_normal((rows, n)).astype(dtype)
    special = generator.random((rows, n))
    matrix[special < 0.03] = np.inf
    matrix[(special >= 0.03) & (special < 0.06)] = -np.inf
    matrix[(special >= 0.06) & (special < 0.09)] = -0.0
    if nan:
        matrix[(special >= 0.09) & (special < 0.12)] = np.nan
    return matrix


def _inputs(source, dtype, rows, width, seed, duplicates):
    """``(values, payload, carried)`` of shape ``(rows, width)``.

    ``raw`` is NaN-free data with a distinct payload; ``sort_keys`` and
    ``tile_keys`` are the keys the top-k kernels rank, NaN included, with
    padding slots past each row's length (``tile_keys`` rows are ragged).
    ``carried`` says whether the kernel ranks with the payload: packed keys
    carry their row, so the reference's second key only orders the padding
    keys, which are all 0.
    """
    positions = np.broadcast_to(np.arange(width), (rows, width)).copy()
    if source == "raw":
        return _matrix(dtype, rows, width, seed, duplicates), positions, True
    generator = np.random.default_rng(seed + 1)
    data = _matrix(dtype, rows, width, seed, duplicates, nan=True)
    if source == "sort_keys":
        length = generator.integers(1, width + 1)
        codes, columns = keys.sort_keys(data[:, :length], width)
    else:
        lengths = generator.integers(1, width + 1, rows)
        tile = RaggedRows(row[:length] for row, length in zip(data, lengths))
        codes, columns = keys.tile_keys(tile, width)
    if columns is None:
        return codes, positions, False
    return codes, columns, True


def _bits(array):
    return array.view(f"u{array.itemsize}")


def _assert_matches_reference(values, payload, k, carried):
    """``reduce_topk`` of the batch and of its first row against the stepped
    reference; ``carried`` says whether the kernel is given the payload."""
    given_payload = payload if carried else None
    top, top_payload = reduce_topk(values, k, given_payload)
    single, single_payload = reduce_topk(
        values[0], k, None if given_payload is None else given_payload[0]
    )
    for row in range(len(values)):
        expected, expected_payload = _reference_reduce(
            values[row].copy(), k, payload[row].copy()
        )
        assert np.array_equal(_bits(top[row]), _bits(expected))
        if row == 0:
            assert np.array_equal(_bits(single), _bits(expected))
        if carried:
            assert np.array_equal(top_payload[row], expected_payload)
            if row == 0:
                assert np.array_equal(single_payload, expected_payload)


@given(
    source=st.sampled_from(["raw", "sort_keys", "tile_keys"]),
    dtype=st.sampled_from([np.float32, np.float64, np.int32, np.uint8]),
    n_exp=st.integers(min_value=1, max_value=14),
    k_exp=st.integers(min_value=0, max_value=14),
    rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
    duplicates=st.booleans(),
)
@example("tile_keys", np.float32, 6, 0, 3, 5, False)  # packed, k = 1
@example("tile_keys", np.float32, 6, 6, 3, 5, True)  # packed, k = W
@example("tile_keys", np.float64, 6, 0, 3, 5, True)  # columns, k = 1
@example("tile_keys", np.float64, 6, 6, 3, 5, False)  # columns, k = W
@settings(
    max_examples=450,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernel_matches_gather_executor(
    source, dtype, n_exp, k_exp, rows, seed, duplicates
):
    width, k = 1 << n_exp, 1 << min(k_exp, n_exp)
    values, payload, carried = _inputs(source, dtype, rows, width, seed, duplicates)
    _assert_matches_reference(values, payload, k, carried)


@pytest.fixture
def stepped(monkeypatch):
    """Compare-exchanges per ``apply_step`` call, counted like a traced run."""
    counts = []
    original = operators.apply_step

    def counting(values, step, payload=None):
        counts.append(len(values) // 2)
        return original(values, step, payload)

    monkeypatch.setattr(operators, "apply_step", counting)
    return counts


def _step_reduce(matrix, k, payload):
    """The step reference over a ``(rows, n)`` batch: local sort, then merge
    and rebuild in the network's logical order on the flattened rows until
    each row holds one bitonic k-run, whose survivors are then sorted as
    ``reduce_topk`` returns them."""
    rows, n = matrix.shape
    values, payload = matrix.reshape(-1).copy(), payload.reshape(-1).copy()
    if k < n:
        local_sort(values, k, payload)
    while len(values) > rows * k:
        values, payload = merge(values, k, payload)
        if len(values) > rows * k:
            rebuild(values, k, payload)
    values, payload = values.reshape(rows, k), payload.reshape(rows, k)
    order = np.lexsort((-payload, values), axis=-1)[:, ::-1]
    return np.take_along_axis(values, order, -1), np.take_along_axis(payload, order, -1)


def _stepped_per_row(n, k):
    """The network's comparisons less the merges (one per survivor of each
    halving) and the last rebuild: the final k survivors are sorted by one
    argsort instead."""
    merges = n - k
    final_rebuild = comparisons_per_step(k) * len(rebuild_steps(k))
    return topk_total_comparisons(n, k) - merges - final_rebuild


def _assert_steps_the_network(stepped, matrix, k):
    rows, n = matrix.shape
    payload = np.broadcast_to(np.arange(n), matrix.shape)
    top, top_payload = _step_reduce(matrix, k, payload)
    assert sum(stepped) == rows * _stepped_per_row(n, k)
    expected, expected_payload = reduce_topk(matrix, k, payload)
    assert np.array_equal(top, expected)
    assert np.array_equal(top_payload, expected_payload)


@pytest.mark.parametrize("n,k", [(2, 1), (64, 1), (64, 8), (1024, 32), (4096, 2048)])
def test_single_row_steps_the_network_comparisons(stepped, n, k):
    values = np.random.default_rng(0).random(n).astype(np.float32)
    _assert_steps_the_network(stepped, values[np.newaxis], k)


@pytest.mark.parametrize("rows,n,k", [(1, 512, 8), (3, 256, 16), (8, 4096, 64)])
def test_batch_steps_the_network_comparisons_per_row(stepped, rows, n, k):
    matrix = np.random.default_rng(1).random((rows, n)).astype(np.float32)
    _assert_steps_the_network(stepped, matrix, k)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_top_k_front_doors_never_step(monkeypatch, dtype):
    """The reduction computes the network's output without stepping it, and
    still returns the oracle's rows."""

    def forbidden(*args, **kwargs):
        raise AssertionError("reduce_topk stepped the network")

    monkeypatch.setattr(operators, "apply_step", forbidden)
    matrix = _matrix(dtype, 3, 700, seed=5, duplicates=True, nan=True)
    single = BitonicTopK().run(matrix[0], 40)
    assert np.array_equal(single.indices, reference_topk(matrix[0], 40)[1])
    batch = batched_topk(matrix, 40)
    for row in range(len(matrix)):
        assert np.array_equal(batch.indices[row], reference_topk(matrix[row], 40)[1])


@pytest.mark.parametrize(
    "k, bits",
    [
        (1, [0x40400000]),
        (2, [0x7FC00000, 0x3F800000]),
        (4, [0x7FC00000, 0x40400000, 0x40000000, 0x00000000]),
        (
            8,
            [
                0x7FC00000,
                0x7FC00000,
                0x40400000,
                0x40000000,
                0x3F800000,
                0x80000000,
                0x00000000,
                0xBF800000,
            ],
        ),
    ],
)
def test_float_row_without_payload_keeps_the_bit_blend(k, bits):
    """``np.maximum`` propagates NaN, so a float row must not merge by it:
    the blend keeps the first of a pair that holds a NaN, where ``maximum``
    would return ``[nan, nan]`` at k = 2."""
    values = np.array([1, np.nan, -0.0, 0.0, 3, np.nan, 2, -1], dtype=np.float32)
    top, payload = reduce_topk(values, k)
    assert payload is None
    assert top.view(np.uint32).tolist() == bits


def test_packed_reduction_allocates_one_copy_and_a_half():
    """The packed reduction sorts one copy of the keys and merges into one
    spare buffer of half its size: no level allocates a fresh array."""
    data = np.random.default_rng(7).standard_normal(1 << 17).astype(np.float32)
    packed, columns = keys.sort_keys(data)
    assert columns is None
    tracemalloc.start()
    try:
        top, _ = reduce_topk(packed, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * packed.nbytes
    assert np.array_equal(top, np.sort(packed)[::-1][:64])
