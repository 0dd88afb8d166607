"""Special-value handling policy across algorithms.

Float inputs may contain infinities and signed zeros; the library's policy
(documented in repro.algorithms.keys) is:

* +inf / -inf participate normally (they are ordinary IEEE-754 order
  extremes);
* -0.0 ties with 0.0 (numeric equality governs; the canonical key codec
  gives both the same code, so ties break on the row);
* NaN ranks below every real value, -inf included: the codec maps every
  NaN to code 0, and every kernel orders NaN last, as the oracle does
  (``tests/bitonic/test_nan_order.py``).  These tests pin down the
  *documented* behaviours, not accidental ones.
"""

import numpy as np
import pytest

from repro.algorithms import keys as keycodec
from repro.algorithms.base import reference_topk
from repro.algorithms.registry import EVALUATED_ALGORITHMS, create


class TestInfinities:
    @pytest.mark.parametrize("name", EVALUATED_ALGORITHMS)
    def test_positive_infinity_wins(self, name, rng):
        data = rng.random(2048).astype(np.float32)
        data[100] = np.inf
        algorithm = create(name)
        if not algorithm.supports(len(data), 5, data.dtype):
            pytest.skip("unsupported configuration")
        result = algorithm.run(data, 5)
        assert result.values[0] == np.inf
        assert 100 in result.indices.tolist()

    @pytest.mark.parametrize("name", EVALUATED_ALGORITHMS)
    def test_negative_infinity_never_surfaces(self, name, rng):
        data = rng.random(2048).astype(np.float32)
        data[7] = -np.inf
        algorithm = create(name)
        if not algorithm.supports(len(data), 10, data.dtype):
            pytest.skip("unsupported configuration")
        result = algorithm.run(data, 10)
        assert -np.inf not in result.values
        assert 7 not in result.indices.tolist()

    def test_all_infinities(self):
        data = np.full(256, -np.inf, dtype=np.float32)
        data[:4] = np.inf
        result = create("radix-select").run(data, 4)
        assert (result.values == np.inf).all()


class TestSignedZero:
    @pytest.mark.parametrize("name", ["sort", "radix-select", "bitonic"])
    def test_negative_zero_ties_with_zero(self, name):
        data = np.array([-0.0, 0.0, -1.0, 1.0], dtype=np.float32)
        result = create(name).run(data, 3)
        expected, _ = reference_topk(data, 3)
        # Values compare equal numerically: 1.0, 0.0, 0.0.
        assert np.array_equal(np.sort(result.values)[::-1], expected)

    def test_radix_codes_order_signed_zero_consistently(self):
        values = np.array([-0.0, 0.0], dtype=np.float32)
        codes = keycodec.encode(values)
        assert codes[0] == codes[1]  # -0.0 takes +0.0's code


class TestNanLast:
    def test_codec_puts_nan_below_negative_infinity(self):
        values = np.array([np.nan, -np.nan, -np.inf, np.inf, 1.0], dtype=np.float32)
        codes = keycodec.encode(values)
        assert codes[0] == codes[1] == 0
        assert codes[1] < codes[2] < codes[4] < codes[3]

    def test_radix_select_surfaces_nan_last(self):
        data = np.ones(512, dtype=np.float32)
        data[3] = np.nan
        result = create("radix-select").run(data, 512)
        assert result.indices[0] == 0
        assert result.indices[-1] == 3


class TestExtremeMagnitudes:
    @pytest.mark.parametrize("name", ["sort", "radix-select", "bucket-select",
                                      "bitonic"])
    def test_denormals_and_huge_values(self, name, rng):
        data = rng.random(1024).astype(np.float32)
        data[0] = np.float32(1e-40)  # denormal
        data[1] = np.float32(3e38)  # near float32 max
        data[2] = np.float32(-3e38)
        result = create(name).run(data, 4)
        expected, _ = reference_topk(data, 4)
        assert np.array_equal(np.sort(result.values)[::-1], expected)
        assert result.values[0] == np.float32(3e38)

    def test_int64_extremes(self):
        data = np.array(
            [np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max],
            dtype=np.int64,
        )
        for name in ("sort", "radix-select", "bitonic"):
            result = create(name).run(data, 2)
            assert result.values.tolist() == [np.iinfo(np.int64).max, 1]
