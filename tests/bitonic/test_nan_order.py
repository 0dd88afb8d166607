"""NaN inputs rank below every real value, as in the oracle.

The bitonic kernels rank canonical keys, in which every NaN takes the
lowest value code, so NaN rows follow the real minima and the padding
follows them.  Every bitonic front door — single-row, batched and the CPU
adaptation — must return ``reference_topk``'s values with indices that
point at rows holding them.
"""

import numpy as np
import pytest

from repro import topk
from repro.algorithms.base import reference_topk
from repro.bitonic.topk import BitonicTopK
from repro.core.batched import batched_topk
from repro.cpu.bitonic_cpu import CpuBitonicTopK, partition_bitonic_topk


def assert_oracle(data, values, indices, k):
    expected, _ = reference_topk(data, k)
    assert np.array_equal(values, expected, equal_nan=True)
    assert np.array_equal(data[indices], values, equal_nan=True)
    assert len(set(indices.tolist())) == k


def sprinkled(seed, n=5000, share=0.01):
    generator = np.random.default_rng(seed)
    data = generator.standard_normal(n).astype(np.float32)
    data[generator.random(n) < share] = np.nan
    return data


@pytest.mark.parametrize("seed", range(5))
def test_planner_bitonic_keeps_the_real_top_k(seed):
    data = sprinkled(seed)
    result = topk(data, 64)
    assert result.algorithm == "bitonic"
    assert_oracle(data, result.values, result.indices, 64)


def test_trailing_nan_does_not_lead():
    data = np.arange(4096, dtype=np.float32)
    data[4095] = np.nan
    single = topk(data, 16)
    batched = batched_topk(data[None], 16)
    assert single.values[0] == 4094
    assert_oracle(data, single.values, single.indices, 16)
    assert_oracle(data, batched.values[0], batched.indices[0], 16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [5, 13, 64])
def test_nan_ranks_after_real_negative_infinity(dtype, n):
    generator = np.random.default_rng(n)
    data = generator.standard_normal(n).astype(dtype)
    data[generator.permutation(n)[: n // 3]] = np.nan
    data[generator.permutation(n)[: n // 4]] = -np.inf
    for k in sorted({1, n // 2, n}):
        single = BitonicTopK().run(data.copy(), k)
        assert_oracle(data, single.values, single.indices, k)
        batched = batched_topk(np.stack([data, data[::-1]]), k)
        assert_oracle(data, batched.values[0], batched.indices[0], k)
        assert_oracle(data[::-1], batched.values[1], batched.indices[1], k)


def test_all_nan_row():
    data = np.full(11, np.nan, dtype=np.float32)
    result = BitonicTopK().run(data, 11)
    assert np.isnan(result.values).all()
    assert sorted(result.indices.tolist()) == list(range(11))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 16, 300])
def test_cpu_bitonic_ranks_nan_last(seed, k):
    data = sprinkled(seed, n=9000, share=0.05)
    data[np.random.default_rng(seed).random(9000) < 0.05] = -np.inf
    result = CpuBitonicTopK().run(data, k)
    assert_oracle(data, result.values, result.indices, k)


def test_cpu_partition_fills_the_tail_with_minima_before_nan():
    partition = np.array([np.nan, -np.inf, 2.0, np.nan, -np.inf], dtype=np.float32)
    values, rows = partition_bitonic_topk(partition, 8, base_index=10)
    assert rows.tolist() == [12, 11, 14, 10, 13]
    assert values.tobytes() == partition[rows - 10].tobytes()
