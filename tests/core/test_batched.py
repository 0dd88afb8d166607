"""Tests for batched (per-row) top-k."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitonic.operators import reduce_topk
from repro.core.batched import batched_topk
from repro.errors import InvalidParameterError


def _oracle(matrix, k):
    return np.sort(matrix, axis=1)[:, ::-1][:, :k]


class TestBatchedReduce:
    @pytest.mark.parametrize("rows,n,k", [(1, 64, 8), (16, 256, 16), (5, 32, 32)])
    def test_matches_per_row_sort(self, rows, n, k, rng):
        matrix = rng.random((rows, n)).astype(np.float32)
        values, _ = reduce_topk(matrix.copy(), k)
        assert np.array_equal(values[:, :k], _oracle(matrix, k))

    def test_k_one(self, rng):
        matrix = rng.random((8, 128)).astype(np.float32)
        values, _ = reduce_topk(matrix.copy(), 1)
        assert np.array_equal(values[:, 0], matrix.max(axis=1))

    @given(
        rows=st.integers(min_value=1, max_value=10),
        n_exp=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_property(self, rows, n_exp, seed):
        generator = np.random.default_rng(seed)
        n = 1 << n_exp
        k = 1 << int(generator.integers(0, n_exp + 1))
        matrix = generator.random((rows, n)).astype(np.float32)
        values, _ = reduce_topk(matrix.copy(), k)
        assert np.array_equal(values[:, :k], _oracle(matrix, k))


class TestBatchedTopK:
    def test_values_and_indices(self, rng):
        matrix = rng.random((9, 777)).astype(np.float32)
        result = batched_topk(matrix, 13)
        assert result.values.shape == (9, 13)
        assert result.indices.shape == (9, 13)
        assert np.array_equal(result.values, _oracle(matrix, 13))
        for row in range(9):
            assert np.array_equal(
                matrix[row][result.indices[row]], result.values[row]
            )

    def test_non_power_of_two_rows(self, rng):
        matrix = rng.random((3, 100)).astype(np.float32)
        result = batched_topk(matrix, 7)
        assert np.array_equal(result.values, _oracle(matrix, 7))

    def test_integer_rows(self, rng):
        matrix = rng.integers(0, 1000, (4, 500)).astype(np.int32)
        result = batched_topk(matrix, 5)
        assert np.array_equal(result.values, _oracle(matrix, 5))

    def test_launch_count_independent_of_batch(self, rng, device):
        """The point of batching: one fused launch pipeline for all rows."""
        small = batched_topk(rng.random((2, 512)).astype(np.float32), 8)
        large = batched_topk(rng.random((64, 512)).astype(np.float32), 8)
        assert small.trace.num_launches == large.trace.num_launches
        # Traffic scales with the batch.
        assert large.trace.global_bytes == pytest.approx(
            32 * small.trace.global_bytes
        )

    def test_batched_cheaper_than_row_at_a_time(self, rng, device):
        """Launch amortization: per-row simulated cost of the batch is
        below running single-row top-k repeatedly."""
        from repro.bitonic.topk import BitonicTopK

        rows = 256
        matrix = rng.random((rows, 1024)).astype(np.float32)
        batch = batched_topk(matrix, 8, device=device)
        single = BitonicTopK(device).run(matrix[0], 8)
        batch_total = batch.simulated_time(device).total
        singles_total = rows * single.simulated_time(device).total
        assert batch_total < singles_total

    def test_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            batched_topk(rng.random(10).astype(np.float32), 2)
        with pytest.raises(InvalidParameterError):
            batched_topk(rng.random((2, 8)).astype(np.float32), 0)
        with pytest.raises(InvalidParameterError):
            batched_topk(rng.random((2, 8)).astype(np.float32), 9)

    def test_per_row_k_of_the_wrong_length_is_typed(self, rng):
        matrix = rng.random((3, 8)).astype(np.float32)
        with pytest.raises(InvalidParameterError):
            batched_topk(matrix, [2, 2])
        with pytest.raises(InvalidParameterError):
            batched_topk(matrix, [[2, 2, 2]])

    def test_nested_list_is_a_uniform_matrix(self):
        result = batched_topk([[1.0, 5.0, 3.0], [4.0, 2.0, 6.0]], 2)
        assert isinstance(result.values, np.ndarray)
        assert result.values.tolist() == [[5.0, 3.0], [6.0, 4.0]]
        assert result.indices.tolist() == [[1, 2], [2, 0]]

    def test_per_row_k_on_a_matrix_takes_each_prefix(self, rng):
        matrix = rng.random((3, 16)).astype(np.float32)
        result = batched_topk(matrix, [1, 16, 5])
        for row, k in enumerate([1, 16, 5]):
            assert np.array_equal(result.values[row], _oracle(matrix, k)[row])
