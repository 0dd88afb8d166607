"""Differential parity of the tile-major kernel against a gather executor.

``_reference_reduce`` steps the network in logical order with fancy-index
gathers, the way the bitonic operators ran before the tile-major layout,
comparing (value, payload) pairs: a lower value, or an equal value with a
higher payload, ranks lower.  The kernel must reproduce its exchange
decisions exactly: bit-identical values and payload, single-row and
batched, for every dtype family and the NaN-free special floats.  A
second check pins what the per-step counters of a traced run mean: the
compare-exchanges stepped through ``apply_step`` are the network's, so
``bitonic.compare_exchanges`` keeps its meaning.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitonic import operators
from repro.bitonic.network import (
    comparisons_per_step,
    local_sort_steps,
    rebuild_steps,
    topk_total_comparisons,
)
from repro.bitonic.operators import reduce_topk
from repro.core.batched import batched_reduce_topk


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


def _matrix(dtype, rows, n, seed, duplicates):
    generator = np.random.default_rng(seed)
    if np.dtype(dtype).kind != "f":
        high = 3 if duplicates else np.iinfo(dtype).max
        return generator.integers(0, high, (rows, n), endpoint=True).astype(dtype)
    if duplicates:
        pool = np.array([-np.inf, -0.0, 0.0, 1.5, np.inf], dtype=dtype)
        return generator.choice(pool, (rows, n))
    matrix = generator.standard_normal((rows, n)).astype(dtype)
    special = generator.random((rows, n))
    matrix[special < 0.03] = np.inf
    matrix[(special >= 0.03) & (special < 0.06)] = -np.inf
    matrix[(special >= 0.06) & (special < 0.09)] = -0.0
    return matrix


def _bits(array):
    return array.view(f"u{array.itemsize}")


@given(
    dtype=st.sampled_from([np.float32, np.float64, np.int32, np.uint8]),
    n_exp=st.integers(min_value=1, max_value=14),
    k_exp=st.integers(min_value=0, max_value=14),
    rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
    duplicates=st.booleans(),
)
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernel_matches_gather_executor(dtype, n_exp, k_exp, rows, seed, duplicates):
    n, k = 1 << n_exp, 1 << min(k_exp, n_exp)
    matrix = _matrix(dtype, rows, n, seed, duplicates)
    payload = np.broadcast_to(np.arange(n), (rows, n)).copy()
    batched_values, batched_payload = batched_reduce_topk(matrix, k, payload)
    for row in range(rows):
        expected, expected_payload = _reference_reduce(
            matrix[row].copy(), k, payload[row].copy()
        )
        assert np.array_equal(_bits(batched_values[row]), _bits(expected))
        assert np.array_equal(batched_payload[row], expected_payload)
    single, single_payload = reduce_topk(matrix[0], k, payload[0])
    expected, expected_payload = _reference_reduce(
        matrix[0].copy(), k, payload[0].copy()
    )
    assert np.array_equal(_bits(single), _bits(expected))
    assert np.array_equal(single_payload, expected_payload)


@pytest.fixture
def stepped(monkeypatch):
    """Compare-exchanges per ``apply_step`` call, counted like a traced run."""
    counts = []
    original = operators.apply_step

    def counting(values, step, payload=None, **layout):
        counts.append(len(values) // 2)
        return original(values, step, payload, **layout)

    monkeypatch.setattr(operators, "apply_step", counting)
    return counts


def _stepped_per_row(n, k):
    """The network's comparisons less the merges (one per survivor of each
    halving) and the last rebuild: the final k survivors are sorted by one
    argsort instead."""
    merges = n - k
    final_rebuild = comparisons_per_step(k) * len(rebuild_steps(k))
    return topk_total_comparisons(n, k) - merges - final_rebuild


@pytest.mark.parametrize("n,k", [(2, 1), (64, 1), (64, 8), (1024, 32), (4096, 2048)])
def test_single_row_steps_the_network_comparisons(stepped, n, k):
    values = np.random.default_rng(0).random(n).astype(np.float32)
    reduce_topk(values, k, np.arange(n))
    assert sum(stepped) == _stepped_per_row(n, k)


@pytest.mark.parametrize("rows,n,k", [(1, 512, 8), (3, 256, 16), (8, 4096, 64)])
def test_batch_steps_the_network_comparisons_per_row(stepped, rows, n, k):
    matrix = np.random.default_rng(1).random((rows, n)).astype(np.float32)
    batched_reduce_topk(matrix, k)
    assert sum(stepped) == rows * _stepped_per_row(n, k)
