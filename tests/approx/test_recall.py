"""The analytic recall model: edge cases, degeneracies, and calibration."""

import numpy as np
import pytest

from repro.approx import (
    ApproxConfig,
    default_config,
    delegate_expected_recall,
    expected_recall,
    measured_recall,
)
from repro.errors import InvalidParameterError


class TestDegenerateConfigurations:
    def test_k_equals_n_is_exact(self):
        # Everything must be kept, so nothing can be lost.
        for buckets in (1, 4, 32):
            config = ApproxConfig(buckets=buckets)
            assert expected_recall(256, 256, config) == 1.0

    def test_single_bucket_is_exact(self):
        config = ApproxConfig(buckets=1, oversample=1)
        assert expected_recall(1 << 20, 64, config) == 1.0

    def test_khat_at_least_k_is_exact(self):
        # khat = ceil(8/4) * 4 = 8 >= k.
        config = ApproxConfig(buckets=4, oversample=4)
        assert expected_recall(1 << 16, 8, config) == 1.0

    def test_khat_at_bucket_capacity_is_exact(self):
        # Each bucket holds <= 4 elements and keeps 4: a full sort.
        config = ApproxConfig(buckets=256, oversample=4)
        assert expected_recall(1024, 256, config) == 1.0


class TestSmallK:
    def test_k_below_bucket_count(self):
        # khat = ceil(4/16) * 1 = 1: every bucket keeps one candidate.
        config = ApproxConfig(buckets=16, oversample=1)
        recall = expected_recall(1024, 4, config)
        assert 0.0 < recall < 1.0

    def test_k_one_with_many_buckets_is_exact(self):
        # The global max always survives its bucket's top-1.
        config = ApproxConfig(buckets=64, oversample=1)
        assert expected_recall(1 << 16, 1, config) == 1.0


class TestModelShape:
    def test_oversampling_monotonically_improves_recall(self):
        recalls = [
            expected_recall(1 << 16, 64, ApproxConfig(buckets=32, oversample=m))
            for m in (1, 2, 3)
        ]
        assert recalls == sorted(recalls)
        assert recalls[-1] > recalls[0]

    def test_default_config_is_near_exact_at_headline_k(self):
        config = default_config(1 << 24, 256)
        assert expected_recall(1 << 24, 256, config) > 1.0 - 1e-6

    def test_matches_monte_carlo(self, rng):
        # Exchangeable assignment, small enough to simulate directly.
        n, k, config = 64, 8, ApproxConfig(buckets=4, oversample=1)
        khat = config.khat(k)
        trials = 4000
        kept = 0
        for _ in range(trials):
            positions = rng.permutation(n)[:k]  # the top-k's positions
            buckets = positions % config.buckets
            counts = np.bincount(buckets, minlength=config.buckets)
            kept += np.minimum(counts, khat).sum()
        empirical = kept / (trials * k)
        assert expected_recall(n, k, config) == pytest.approx(
            empirical, abs=0.02
        )

    def test_invalid_shapes_raise(self):
        config = ApproxConfig()
        with pytest.raises(InvalidParameterError):
            expected_recall(0, 1, config)
        with pytest.raises(InvalidParameterError):
            expected_recall(16, 0, config)
        with pytest.raises(InvalidParameterError):
            expected_recall(16, 17, config)


class TestDelegateRecall:
    def test_disabled_filter_matches_plain_model(self):
        config = ApproxConfig(buckets=16)
        assert delegate_expected_recall(1 << 16, 32, config) == expected_recall(
            1 << 16, 32, config
        )

    def test_grouping_reduces_effective_population(self):
        plain = ApproxConfig(buckets=16, oversample=1)
        grouped = ApproxConfig(buckets=16, oversample=1, delegate_group=128)
        # Same bucket structure over far fewer items: recall can only be
        # the group-level hypergeometric, still in (0, 1].
        recall = delegate_expected_recall(1 << 20, 64, grouped)
        assert 0.0 < recall <= 1.0
        assert recall == expected_recall(
            (1 << 20) // 128, 64, plain
        )


class TestMeasuredRecall:
    def test_identical_answers_score_one(self, rng):
        values = rng.random(64).astype(np.float32)
        assert measured_recall(values, values.copy()) == 1.0

    def test_counts_misses(self):
        exact = np.array([5.0, 4.0, 3.0, 2.0], dtype=np.float32)
        approx = np.array([5.0, 4.0, 1.0, 0.5], dtype=np.float32)
        assert measured_recall(approx, exact) == 0.5

    def test_duplicates_at_boundary_count_with_multiplicity(self):
        # The exact top-4 holds the value 3.0 twice; recovering it once
        # scores one hit, not two.
        exact = np.array([5.0, 3.0, 3.0, 2.0], dtype=np.float32)
        approx = np.array([5.0, 3.0, 2.0, 1.0], dtype=np.float32)
        assert measured_recall(approx, exact) == 0.75

    def test_special_values_match_radix_ordering(self):
        # Same policy as tests/test_special_values.py: +/-inf are ordinary
        # order extremes, NaN is a distinct code below -inf.
        exact = np.array([np.inf, 1.0, -np.inf], dtype=np.float32)
        assert measured_recall(exact.copy(), exact) == 1.0
        with_nan = np.array([np.nan, np.inf, 1.0], dtype=np.float32)
        assert measured_recall(with_nan.copy(), with_nan) == 1.0
        # NaN is not +inf: swapping one for the other is a miss.
        assert measured_recall(
            np.array([np.inf], dtype=np.float32),
            np.array([np.nan], dtype=np.float32),
        ) == 0.0

    def test_dtype_mismatch_raises(self):
        with pytest.raises(InvalidParameterError):
            measured_recall(
                np.zeros(4, dtype=np.float64), np.zeros(4, dtype=np.float32)
            )

    def test_empty_reference_scores_one(self):
        assert measured_recall(
            np.array([], dtype=np.float32), np.array([], dtype=np.float32)
        ) == 1.0
