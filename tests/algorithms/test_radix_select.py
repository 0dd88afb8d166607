"""Tests for radix-select top-k."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import reference_topk
from repro.algorithms.radix_select import RadixSelectTopK
from repro.data.distributions import (
    bucket_killer,
    increasing,
    uniform_floats,
    uniform_uints,
)


class TestCorrectness:
    @pytest.mark.parametrize("n,k", [(10, 1), (100, 7), (5000, 64), (5000, 5000)])
    def test_matches_reference(self, n, k, rng):
        data = rng.random(n).astype(np.float32)
        result = RadixSelectTopK().run(data, k)
        expected, _ = reference_topk(data, k)
        assert np.array_equal(np.sort(result.values)[::-1], expected)
        assert np.array_equal(np.sort(data[result.indices])[::-1], expected)

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64]
    )
    def test_all_dtypes_with_negatives(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            data = (rng.standard_normal(2000) * 1000).astype(dtype)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, 2000, dtype=dtype)
        result = RadixSelectTopK().run(data, 31)
        expected, _ = reference_topk(data, 31)
        assert np.array_equal(np.sort(result.values)[::-1], expected)

    def test_heavy_duplicates_padding_path(self, rng):
        """When the k-th value ties with many elements, the final padding
        step (Section 4.2) must fill the result with the tied value."""
        data = np.ones(1000, dtype=np.float32)
        data[:5] = 2.0
        result = RadixSelectTopK().run(data, 100)
        assert (result.values[:5] == 2.0).all()
        assert (result.values[5:] == 1.0).all()
        assert len(np.unique(result.indices)) == 100

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_property_random_ints(self, seed):
        generator = np.random.default_rng(seed)
        data = generator.integers(-100, 100, 300).astype(np.int32)
        k = int(generator.integers(1, 300))
        result = RadixSelectTopK().run(data, k)
        expected, _ = reference_topk(data, k)
        assert np.array_equal(np.sort(result.values)[::-1], expected)


class TestDataDependentCost:
    def test_uniform_floats_first_pass_keeps_half(self):
        """U(0, 1) floats share the top exponent byte for values in
        [0.5, 1), so eta_0 ~= 0.5."""
        result = RadixSelectTopK().run(uniform_floats(1 << 16), 64)
        assert result.trace.notes["eta_0"] == pytest.approx(0.5, abs=0.05)

    def test_uniform_uints_reduce_maximally(self, device):
        """Figure 11b: uniform uints give the maximal 256x reduction."""
        result = RadixSelectTopK().run(uniform_uints(1 << 16), 64)
        assert result.trace.notes["eta_0"] < 0.02

    def test_uints_faster_than_floats(self, device):
        floats = RadixSelectTopK(device).run(
            uniform_floats(1 << 16), 64, model_n=1 << 29
        )
        uints = RadixSelectTopK(device).run(
            uniform_uints(1 << 16), 64, model_n=1 << 29
        )
        assert uints.simulated_time(device).total < (
            floats.simulated_time(device).total * 0.7
        )

    def test_bucket_killer_degrades_to_sort(self, device):
        """Figure 12b: every pass eliminates one element, so the scatter
        write is skipped and each pass costs a full scan, matching sort."""
        from repro.algorithms.radix_sort import SortTopK

        killer = RadixSelectTopK(device).run(
            bucket_killer(1 << 16), 64, model_n=1 << 29
        )
        sort = SortTopK(device).run(uniform_floats(1 << 14), 64, model_n=1 << 29)
        ratio = killer.simulated_time(device).total / sort.simulated_time(device).total
        assert 0.8 < ratio < 1.2

    def test_no_reduction_skips_the_clustering_write(self):
        """An all-tied digit means zero reduction, so the pass skips its
        scatter and reuses the input (Section 4.2)."""
        result = RadixSelectTopK().run(np.ones(1 << 12, dtype=np.float32), 8)
        scatter_kernels = [
            kernel
            for kernel in result.trace.kernels
            if kernel.name.startswith("select-scatter")
        ]
        assert len(scatter_kernels) == 0
        assert result.trace.notes["passes"] == 4

    def test_bucket_killer_never_skips(self):
        """The adversarial input removes exactly one element per pass —
        nonzero reduction, so every pass pays its full scatter."""
        result = RadixSelectTopK().run(bucket_killer(1 << 14), 8)
        scatter_kernels = [
            kernel
            for kernel in result.trace.kernels
            if kernel.name.startswith("select-scatter")
        ]
        assert len(scatter_kernels) == result.trace.notes["passes"]

    def test_distribution_does_not_change_the_answer(self, rng):
        for generator in (uniform_floats, increasing, bucket_killer):
            data = generator(4096)
            result = RadixSelectTopK().run(data, 32)
            expected, _ = reference_topk(data, 32)
            assert np.array_equal(np.sort(result.values)[::-1], expected)


class TestTieBreakCanonicalOrder:
    """Duplicate-heavy inputs: the result must be bit-equal to the CPU
    reference — values AND indices — i.e. ties resolve to the (value
    descending, lower row first) canonical order, not to whatever order
    the scatter happened to preserve."""

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.uint32, np.int64]
    )
    def test_duplicate_heavy_matches_reference_bit_for_bit(self, dtype, rng):
        # Eight distinct values over 4096 rows: every selection boundary
        # lands inside a tie group.
        if np.dtype(dtype).kind == "f":
            data = rng.integers(0, 8, 4096).astype(dtype)
        else:
            data = rng.integers(0, 8, 4096, dtype=dtype)
        for k in (1, 7, 100, 1000):
            result = RadixSelectTopK().run(data, k)
            expected_values, expected_indices = reference_topk(data, k)
            assert np.array_equal(result.values, expected_values)
            assert np.array_equal(result.indices, expected_indices)

    def test_tied_kth_value_takes_lowest_rows(self):
        data = np.zeros(512, dtype=np.float32)
        data[::2] = 1.0  # 256 tied maxima on the even rows
        result = RadixSelectTopK().run(data, 10)
        assert np.array_equal(result.indices, np.arange(0, 20, 2))

    def test_negative_float_ties(self, rng):
        data = np.repeat(
            np.array([-1.5, -2.5, -0.5], dtype=np.float32), 100
        )
        result = RadixSelectTopK().run(data, 150)
        expected_values, expected_indices = reference_topk(data, 150)
        assert np.array_equal(result.values, expected_values)
        assert np.array_equal(result.indices, expected_indices)


class TestAdversarialInputs:
    def test_all_equal_input(self):
        data = np.full(2048, 3.25, dtype=np.float32)
        result = RadixSelectTopK().run(data, 64)
        assert (result.values == 3.25).all()
        assert np.array_equal(result.indices, np.arange(64))

    def test_bucket_killer_matches_reference_exactly(self):
        data = bucket_killer(1 << 14)
        result = RadixSelectTopK().run(data, 100)
        expected_values, expected_indices = reference_topk(data, 100)
        assert np.array_equal(result.values, expected_values)
        assert np.array_equal(result.indices, expected_indices)

    def test_infinity_mix_matches_reference(self, rng):
        data = rng.standard_normal(1024).astype(np.float32)
        data[10:20] = np.inf
        data[30:40] = -np.inf
        result = RadixSelectTopK().run(data, 32)
        expected_values, expected_indices = reference_topk(data, 32)
        assert np.array_equal(result.values, expected_values)
        assert np.array_equal(result.indices, expected_indices)

    def test_nan_orders_last(self, rng):
        """NaN takes the lowest canonical code, so the infinity surfaces
        first and the NaN row never does."""
        data = rng.random(512).astype(np.float32)
        data[7] = np.nan
        data[11] = np.inf
        result = RadixSelectTopK().run(data, 2)
        assert result.indices.tolist() == reference_topk(data, 2)[1].tolist()
        assert result.indices[0] == 11 and 7 not in result.indices

    def test_k_equals_n_is_a_full_canonical_sort(self, rng):
        data = rng.integers(0, 4, 256).astype(np.float32)
        result = RadixSelectTopK().run(data, 256)
        expected_values, expected_indices = reference_topk(data, 256)
        assert np.array_equal(result.values, expected_values)
        assert np.array_equal(result.indices, expected_indices)


class TestEmittedFractionMetric:
    """The per-pass emitted fraction is recorded alongside the survivor
    fraction — both as an observability histogram and as trace notes."""

    def _observed_run(self, data, k):
        from repro import observability as obs

        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            result = RadixSelectTopK().run(data, k)
        return observation.metrics, result

    def test_both_histograms_record_every_pass(self, rng):
        metrics, result = self._observed_run(
            rng.random(1 << 14).astype(np.float32), 64
        )
        passes = result.trace.notes["passes"]
        survivor = metrics.histogram("radix_select.survivor_fraction")
        emitted = metrics.histogram("radix_select.emitted_fraction")
        assert survivor.count == passes
        assert emitted.count == passes
        assert 0.0 <= emitted.minimum and emitted.maximum <= 1.0

    def test_all_equal_input_emits_nothing(self):
        """Every pass of an all-equal input keeps the whole candidate set
        (eta = 1) and emits no element early."""
        metrics, result = self._observed_run(
            np.ones(1 << 12, dtype=np.float32), 8
        )
        emitted = metrics.histogram("radix_select.emitted_fraction")
        survivor = metrics.histogram("radix_select.survivor_fraction")
        assert emitted.count == result.trace.notes["passes"]
        assert emitted.maximum == 0.0
        assert survivor.minimum == 1.0

    def test_trace_notes_mirror_the_pass_fractions(self, rng):
        result = RadixSelectTopK().run(
            rng.random(1 << 14).astype(np.float32), 64
        )
        for index in range(result.trace.notes["passes"]):
            eta = result.trace.notes[f"eta_{index}"]
            emitted = result.trace.notes[f"emitted_{index}"]
            assert 0.0 <= eta <= 1.0
            assert 0.0 <= emitted <= 1.0
            # A pass never emits and keeps more than it saw.
            assert eta + emitted <= 1.0 + 1e-12


class TestPredictedVsTracedPasses:
    """The cost model's early-break accounting must mirror the kernel:
    fed the measured survivor and emitted fractions, predict_passes equals
    the trace's ``passes`` note exactly."""

    DTYPES = [np.float32, np.float64, np.uint32, np.uint64, np.int32, np.int64]

    @staticmethod
    def _profile_for(dtype):
        from repro.costmodel.base import UNIFORM_FLOAT, UNIFORM_UINT

        return UNIFORM_FLOAT if np.dtype(dtype).kind == "f" else UNIFORM_UINT

    @staticmethod
    def _data_for(dtype, n, rng):
        if np.dtype(dtype).kind == "f":
            return rng.random(n).astype(dtype)
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, n, dtype=dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [1, 8, 64, 512])
    def test_measured_fractions_round_trip_exactly(self, dtype, k, rng):
        from dataclasses import replace

        from repro.costmodel.radix_model import RadixSelectModel

        n = 1 << 16
        result = RadixSelectTopK().run(self._data_for(dtype, n, rng), k)
        traced = result.trace.notes["passes"]
        etas = tuple(
            result.trace.notes[f"eta_{index}"] for index in range(traced)
        )
        emitted = tuple(
            result.trace.notes[f"emitted_{index}"] for index in range(traced)
        )
        profile = replace(
            self._profile_for(dtype), radix_survivor_fractions=etas
        )
        predicted = RadixSelectModel().predict_passes(
            n, k, np.dtype(dtype), profile, emitted_fractions=emitted
        )
        assert predicted == traced

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_survivors_alone_break_at_most_one_pass_early(self, dtype, rng):
        """Without the measured emitted fractions the model cannot know
        how many result slots each pass filled, so it may break one pass
        early — never more, and never later than the kernel."""
        from dataclasses import replace

        from repro.costmodel.radix_model import RadixSelectModel

        n = 1 << 16
        for k in (8, 64, 512):
            result = RadixSelectTopK().run(self._data_for(dtype, n, rng), k)
            traced = result.trace.notes["passes"]
            etas = tuple(
                result.trace.notes[f"eta_{index}"] for index in range(traced)
            )
            profile = replace(
                self._profile_for(dtype), radix_survivor_fractions=etas
            )
            predicted = RadixSelectModel().predict_passes(
                n, k, np.dtype(dtype), profile
            )
            assert traced - 1 <= predicted <= traced
