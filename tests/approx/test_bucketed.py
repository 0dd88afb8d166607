"""The bucketed approximate operator: exactness boundaries, determinism,
special values, the delegate pre-filter, trace accounting, and the
per-bucket cut against a stable-sort oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import reference_topk
from repro.algorithms.keys import encode
from repro.approx import (
    ApproxBucketTopK,
    ApproxConfig,
    default_config,
    expected_recall,
    measured_recall,
)
from repro.approx import bucketed
from repro.bitonic.topk import BitonicTopK


class TestExactDegeneracies:
    def test_single_bucket_is_bit_equal_to_exact(self, rng, device):
        data = rng.random(1 << 12).astype(np.float32)
        exact = BitonicTopK(device).run(data, 32)
        approx = ApproxBucketTopK(
            device, config=ApproxConfig(buckets=1, oversample=1)
        ).run(data, 32)
        assert np.array_equal(exact.values, approx.values)
        assert np.array_equal(exact.indices, approx.indices)
        assert approx.trace.notes["approx.expected_recall"] == 1.0

    def test_k_equals_n_recovers_everything(self, rng, device):
        data = rng.random(256).astype(np.float32)
        result = ApproxBucketTopK(device, config=ApproxConfig(buckets=8)).run(data, 256)
        reference, _ = reference_topk(data, 256)
        assert measured_recall(result.values, reference) == 1.0


class TestRecallOnRandomData:
    def test_default_config_meets_its_own_prediction(self, rng, device):
        data = rng.random(1 << 16).astype(np.float32)
        config = default_config(len(data), 64)
        result = ApproxBucketTopK(device, config=config).run(data, 64)
        reference, _ = reference_topk(data, 64)
        predicted = expected_recall(len(data), 64, config)
        assert measured_recall(result.values, reference) >= predicted - 0.05

    def test_k_below_bucket_count(self, rng, device):
        data = rng.random(4096).astype(np.float32)
        config = ApproxConfig(buckets=64, oversample=1)
        result = ApproxBucketTopK(device, config=config).run(data, 4)
        assert len(result.values) == 4
        reference, _ = reference_topk(data, 4)
        assert measured_recall(result.values, reference) > 0.0

    def test_duplicate_values_at_the_boundary(self, device):
        # Many copies of the k-th value: multiset recall still reaches 1.0
        # because every bucket's copies outrank the filler below them.
        data = np.concatenate(
            [np.full(64, 7.0), np.arange(960, dtype=np.float32) / 1000.0]
        ).astype(np.float32)
        config = ApproxConfig(buckets=16, oversample=3)
        result = ApproxBucketTopK(device, config=config).run(data, 32)
        reference, _ = reference_topk(data, 32)
        assert measured_recall(result.values, reference) == 1.0


class TestDeterminism:
    def test_same_seed_same_answer(self, rng, device):
        data = rng.random(1 << 14).astype(np.float32)
        config = ApproxConfig(buckets=16, seed=7)
        first = ApproxBucketTopK(device, config=config).run(data, 64)
        second = ApproxBucketTopK(device, config=config).run(data, 64)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.indices, second.indices)
        assert first.trace.notes == second.trace.notes

    def test_strided_default_is_deterministic(self, rng, device):
        data = rng.random(1 << 14).astype(np.float32)
        config = ApproxConfig(buckets=16)
        runs = [ApproxBucketTopK(device, config=config).run(data, 64) for _ in range(2)]
        assert np.array_equal(runs[0].values, runs[1].values)


class TestSpecialValues:
    """The policy of tests/test_special_values.py holds for the
    approximate operator too — per-bucket selection uses the same
    order-preserving codes as the radix family."""

    def test_positive_infinity_wins(self, rng, device):
        data = rng.random(2048).astype(np.float32)
        data[100] = np.inf
        result = ApproxBucketTopK(device, config=ApproxConfig(buckets=8)).run(data, 5)
        assert result.values[0] == np.inf
        assert 100 in result.indices.tolist()

    def test_negative_infinity_never_surfaces(self, rng, device):
        data = rng.random(2048).astype(np.float32)
        data[7] = -np.inf
        result = ApproxBucketTopK(device, config=ApproxConfig(buckets=8)).run(data, 10)
        assert -np.inf not in result.values
        assert 7 not in result.indices.tolist()

    def test_nan_orders_last(self, device):
        # The *bucketed scan* selects on the canonical codes, which place
        # NaN below every real value, so a non-degenerate configuration
        # never surfaces the NaN row ahead of the real ones.
        data = np.ones(512, dtype=np.float32)
        data[3] = np.nan
        result = ApproxBucketTopK(
            device, config=ApproxConfig(buckets=8, oversample=1)
        ).run(data, 8)
        assert 3 not in result.indices.tolist()
        assert not np.isnan(result.values).any()

    def test_denormals_and_huge_values(self, rng, device):
        data = rng.random(1024).astype(np.float32)
        data[0] = np.float32(1e-40)
        data[1] = np.float32(3e38)
        result = ApproxBucketTopK(device, config=ApproxConfig(buckets=4)).run(data, 4)
        assert result.values[0] == np.float32(3e38)


class TestDelegateFilter:
    def test_delegate_mode_still_finds_the_top(self, rng, device):
        data = rng.random(1 << 14).astype(np.float32)
        config = ApproxConfig(buckets=16, delegate_group=32)
        result = ApproxBucketTopK(device, config=config).run(data, 16, model_n=1 << 22)
        reference, _ = reference_topk(data, 16)
        assert measured_recall(result.values, reference) >= 0.9
        # At model scale the n-to-(b * khat * g) merge cut dominates the
        # bookkeeping the pre-filter adds.
        assert result.trace.notes["approx.global_bytes_saved"] > 0.0


class TestTraceAccounting:
    def test_notes_describe_the_configuration(self, rng, device):
        data = rng.random(1 << 12).astype(np.float32)
        config = ApproxConfig(buckets=16, oversample=2)
        result = ApproxBucketTopK(device, config=config).run(data, 32)
        notes = result.trace.notes
        assert notes["approx.buckets"] == 16
        assert notes["approx.khat"] == config.khat(32)
        assert notes["approx.candidates"] == config.candidates(32)
        assert 0.0 < notes["approx.expected_recall"] <= 1.0

    def test_model_n_scales_the_trace_not_the_answer(self, rng, device):
        data = rng.random(1 << 12).astype(np.float32)
        config = ApproxConfig(buckets=16)
        small = ApproxBucketTopK(device, config=config).run(data, 32)
        large = ApproxBucketTopK(device, config=config).run(data, 32, model_n=1 << 24)
        assert np.array_equal(small.values, large.values)
        assert large.trace.global_bytes > small.trace.global_bytes

    def test_faster_than_exact_at_headline_shape(self, rng, device):
        data = rng.random(1 << 16).astype(np.float32)
        model_n, k = 1 << 24, 256
        exact_ms = (
            BitonicTopK(device)
            .run(data, k, model_n=model_n)
            .simulated_ms(device)
        )
        approx_ms = (
            ApproxBucketTopK(device, config=default_config(model_n, k))
            .run(data, k, model_n=model_n)
            .simulated_ms(device)
        )
        assert exact_ms / approx_ms >= 2.0


def _stable_sort_cut(codes, khat, buckets):
    """The oracle cut: a stable sort of every whole bucket (complemented
    codes, padding in the final steps), keeping each bucket's first keep."""
    n = len(codes)
    steps = math.ceil(n / buckets)
    inverted = np.full(steps * buckets, np.iinfo(codes.dtype).max, codes.dtype)
    inverted[:n] = ~codes
    order = np.argsort(inverted.reshape(steps, buckets), axis=0, kind="stable")
    positions = (order[: min(khat, steps)] * buckets + np.arange(buckets)).ravel()
    return positions[positions < n]


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0])


def _values(kind, dtype, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        values = rng.permutation(n).astype(np.float64) - n // 2
    elif kind == "ties":
        values = rng.integers(-2, 2, n).astype(np.float64)
    else:
        values = rng.choice(_SPECIAL, n)
    if np.dtype(dtype).kind == "i":
        values = np.nan_to_num(values, nan=0.0, posinf=2**31 - 1, neginf=-(2**31))
    return values.astype(dtype)


class TestBucketCut:
    @given(
        kind=st.sampled_from(["distinct", "ties", "special"]),
        dtype=st.sampled_from([np.float32, np.float64, np.int32]),
        n=st.integers(1, 700),
        buckets=st.integers(1, 48),
        khat=st.integers(1, 64),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_keeps_the_stable_sort_candidates(
        self, kind, dtype, n, buckets, khat, seed
    ):
        # Covers padding (n not a multiple of buckets), keep >= steps and
        # one bucket through the drawn shapes.
        codes = encode(_values(kind, dtype, n, seed))
        got = bucketed._bucket_topk_codes(codes, khat, buckets)
        want = _stable_sort_cut(codes, khat, buckets)
        assert np.array_equal(np.sort(got), np.sort(want))

    @pytest.mark.parametrize(
        "config",
        [
            ApproxConfig(buckets=8, oversample=1),
            ApproxConfig(buckets=16, oversample=2, seed=3),
            ApproxConfig(buckets=4, oversample=1, delegate_group=8),
            ApproxConfig(buckets=8, oversample=2, delegate_group=4, seed=1),
        ],
    )
    @pytest.mark.parametrize("kind", ["distinct", "ties", "special"])
    def test_operator_answers_as_with_the_oracle_cut(
        self, monkeypatch, device, config, kind
    ):
        data = _values(kind, np.float32, 5000, 17)
        operator = ApproxBucketTopK(device, config=config)
        got = operator.run(data, 64)
        monkeypatch.setattr(bucketed, "_bucket_topk_codes", _stable_sort_cut)
        want = operator.run(data, 64)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.indices, want.indices)

    def test_sorts_only_the_survivors(self, monkeypatch):
        # A work guard without a clock: on distinct codes each bucket has
        # exactly keep survivors, so at most buckets * keep rows are sorted
        # and no whole bucket is.
        sorted_rows = []
        spied = {name: getattr(np, name) for name in ("lexsort", "argsort", "sort")}

        def spy(name):
            def counting(keys, *args, **kwargs):
                sorted_rows.append(len(keys[0]) if name == "lexsort" else np.size(keys))
                return spied[name](keys, *args, **kwargs)

            return counting

        for name in spied:
            monkeypatch.setattr(np, name, spy(name))
        n, buckets, khat = 1 << 16, 16, 32
        codes = encode(np.random.default_rng(0).permutation(n).astype(np.float32))
        positions = bucketed._bucket_topk_codes(codes, khat, buckets)
        monkeypatch.undo()
        assert sorted_rows and sum(sorted_rows) <= buckets * khat
        assert np.array_equal(
            np.sort(positions), np.sort(_stable_sort_cut(codes, khat, buckets))
        )
