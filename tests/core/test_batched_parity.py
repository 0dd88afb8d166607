"""Row-by-row parity between batched and single-row bitonic top-k.

The batched kernel runs the identical compare-exchange step sequence as
:class:`~repro.bitonic.topk.BitonicTopK`, just elementwise along the row
axis, so every row of a batched result must be *bit-equal* (values and
indices) to running the single-row algorithm on that row — including the
hazard cases: non-power-of-two row lengths (padding present), payloads
tying with the padding sentinel, NaN/±inf floats, and k == n.

The sentinel tests are regressions for the padded-index leak: before the
fix, a padded column index >= n could appear in ``TopKResult.indices``
whenever the padding value tied with real data (0 for unsigned dtypes,
real -inf floats).
"""

import numpy as np
import pytest

from repro.algorithms.base import SUPPORTED_DTYPES, reference_topk
from repro.bitonic.topk import BitonicTopK
from repro.core.batched import batched_topk
from repro.errors import InvalidParameterError


def assert_rows_match_single(matrix, k):
    """Every row of the batched result equals the single-row result."""
    batched = batched_topk(matrix.copy(), k)
    n = matrix.shape[1]
    assert (batched.indices >= 0).all()
    assert (batched.indices < n).all(), "padded index leaked into the result"
    for row in range(matrix.shape[0]):
        single = BitonicTopK().run(matrix[row].copy(), k)
        assert np.array_equal(
            batched.values[row], single.values, equal_nan=True
        ), f"row {row}: values diverge from the single-row kernel"
        assert np.array_equal(
            batched.indices[row], single.indices
        ), f"row {row}: indices diverge from the single-row kernel"


def assert_rows_match_oracle(matrix, k):
    """Every row holds ``reference_topk``'s values, on rows that hold them."""
    batched = batched_topk(matrix.copy(), k)
    for row in range(matrix.shape[0]):
        expected, _ = reference_topk(matrix[row], k)
        assert np.array_equal(batched.values[row], expected, equal_nan=True)
        assert np.array_equal(
            matrix[row][batched.indices[row]], batched.values[row], equal_nan=True
        )


class TestRowParity:
    @pytest.mark.parametrize("n", [5, 37, 100, 777])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_non_power_of_two_rows(self, n, k, rng):
        matrix = rng.random((6, n)).astype(np.float32)
        assert_rows_match_single(matrix, min(k, n))

    @pytest.mark.parametrize("n", [5, 24, 100])
    def test_k_equals_n(self, n, rng):
        matrix = rng.random((4, n)).astype(np.float32)
        assert_rows_match_single(matrix, n)

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64]
    )
    def test_every_supported_dtype(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            matrix = (rng.random((3, 45)) * 100).astype(dtype)
        else:
            matrix = rng.integers(0, 50, (3, 45)).astype(dtype)
        assert_rows_match_single(matrix, 7)


class TestSentinelValues:
    """Payloads equal to the padding sentinel (the leak regression)."""

    def test_unsigned_zeros_with_padding(self):
        # sentinel = iinfo(uint32).min == 0 ties with the real zeros; with
        # n = 5 padded to 8 the pre-fix kernel returned indices >= 5.
        matrix = np.array([[5, 0, 3, 0, 7], [0, 0, 0, 1, 0]], dtype=np.uint32)
        result = batched_topk(matrix, 5)
        assert (result.indices < 5).all()
        assert_rows_match_single(matrix, 5)

    def test_unsigned_all_zero_rows(self):
        matrix = np.zeros((3, 11), dtype=np.uint32)
        result = batched_topk(matrix, 11)
        for row in range(3):
            assert sorted(result.indices[row].tolist()) == list(range(11))
        assert_rows_match_single(matrix, 11)

    def test_signed_minimum_values(self):
        low = np.iinfo(np.int32).min
        matrix = np.array([[low, 3, low, 2, 1]], dtype=np.int32)
        assert_rows_match_single(matrix, 5)

    def test_real_negative_infinity(self):
        matrix = np.array(
            [[1.0, -np.inf, 2.0], [-np.inf, -np.inf, 0.5]], dtype=np.float32
        )
        result = batched_topk(matrix, 3)
        assert (result.indices < 3).all()
        assert_rows_match_single(matrix, 3)

    def test_indices_point_at_matching_values(self, rng):
        matrix = rng.integers(0, 3, (8, 21)).astype(np.uint32)
        result = batched_topk(matrix, 21)
        for row in range(8):
            assert np.array_equal(
                matrix[row][result.indices[row]], result.values[row]
            )
            assert len(set(result.indices[row].tolist())) == 21


class TestSpecialFloats:
    def test_positive_infinity(self, rng):
        matrix = rng.random((4, 50)).astype(np.float32)
        matrix[:, 13] = np.inf
        result = batched_topk(matrix, 5)
        assert (result.values[:, 0] == np.inf).all()
        assert (result.indices[:, 0] == 13).all()
        assert_rows_match_single(matrix, 5)

    def test_nan_rows_match_single_kernel(self, rng):
        # NaN columns rank below every real value (the oracle's NaN-last
        # order), identically in the batched and single-row kernels.
        matrix = rng.random((5, 29)).astype(np.float32)
        matrix[0, 3] = np.nan
        matrix[1, :7] = np.nan
        matrix[2, -1] = np.nan
        matrix[3, 10] = -np.inf
        matrix[3, 11] = np.nan
        assert_rows_match_single(matrix, 6)
        assert_rows_match_oracle(matrix, 6)
        assert_rows_match_oracle(matrix, 29)

    def test_nan_with_padding_and_k_equals_n(self, rng):
        matrix = rng.random((3, 13)).astype(np.float32)
        matrix[1, 4] = np.nan
        matrix[2, 0] = np.nan
        matrix[2, 1] = -np.inf
        assert_rows_match_single(matrix, 13)
        assert_rows_match_oracle(matrix, 13)


class TestDtypeValidation:
    """bool/float16 must raise the engine's typed error, not a raw numpy
    failure from inside ``np.iinfo`` (the pre-fix behaviour)."""

    @pytest.mark.parametrize("dtype", [np.bool_, np.float16])
    def test_unsupported_dtype_is_typed(self, dtype):
        matrix = np.ones((2, 8), dtype=dtype)
        with pytest.raises(InvalidParameterError) as excinfo:
            batched_topk(matrix, 2)
        message = str(excinfo.value)
        for supported in SUPPORTED_DTYPES:
            assert supported.__name__ in message

    def test_supported_dtypes_still_accepted(self, rng):
        for dtype in SUPPORTED_DTYPES:
            if np.dtype(dtype).kind == "f":
                matrix = rng.random((2, 8)).astype(dtype)
            else:
                matrix = rng.integers(0, 9, (2, 8)).astype(dtype)
            result = batched_topk(matrix, 2)
            assert result.values.shape == (2, 2)
