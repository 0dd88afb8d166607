"""Tests for the hybrid CPU + GPU top-k."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.errors import InvalidParameterError
from repro.hybrid.cpu_gpu import HybridTopK


class TestCorrectness:
    @pytest.mark.parametrize("n,k", [(10, 2), (1000, 32), (50000, 300)])
    def test_matches_reference(self, n, k, rng):
        data = rng.random(n).astype(np.float32)
        result = HybridTopK().run(data, k)
        expected, _ = reference_topk(data, k)
        assert np.array_equal(np.sort(result.values)[::-1], expected)
        assert np.array_equal(np.sort(data[result.indices])[::-1], expected)

    def test_winners_on_the_cpu_side_survive(self, rng):
        """The global top-k landing entirely in the CPU's slice must
        surface through the reduction."""
        data = rng.random(10000).astype(np.float32)
        data[-50:] += 5.0  # the tail belongs to the CPU share
        result = HybridTopK().run(data, 50)
        assert (result.indices >= 9950).all()


    def test_ties_and_nan_take_the_oracles_rows(self, rng):
        # Duplicates on both sides of the split go to the lower row; NaN
        # ranks last.
        data = rng.integers(0, 4, 10000).astype(np.float32)
        data[rng.choice(10000, 9500, replace=False)] = np.nan
        for k in (32, 1000):
            result = HybridTopK().run(data, k)
            expected_values, expected_rows = reference_topk(data, k)
            assert np.array_equal(result.indices, expected_rows)
            assert np.array_equal(result.values, expected_values, equal_nan=True)


class TestSplitPlanning:
    def test_split_balances_finish_times(self, device):
        split = HybridTopK(device).plan_split(1 << 29, 64, np.dtype(np.float32))
        assert 0.0 < split.gpu_fraction < 1.0
        assert split.gpu_seconds == pytest.approx(split.cpu_seconds, rel=0.05)

    def test_gpu_gets_the_larger_share(self, device):
        """The GPU's per-element throughput dominates the CPU's, so it
        should take well over half the data."""
        split = HybridTopK(device).plan_split(1 << 29, 64, np.dtype(np.float32))
        assert split.gpu_fraction > 0.6

    def test_hybrid_beats_either_device_alone(self, device, rng):
        """The whole point: the makespan is below both single-device times."""
        from repro.bitonic.topk import BitonicTopK
        from repro.cpu.pq_topk import HandPqTopK

        data = rng.random(1 << 16).astype(np.float32)
        hybrid = HybridTopK(device).run(data, 64, model_n=1 << 29)
        gpu_only = BitonicTopK(device).run(data, 64, model_n=1 << 29)
        cpu_only = HandPqTopK(device).run(data, 64, model_n=1 << 29)
        hybrid_time = hybrid.simulated_time(device).total
        assert hybrid_time < gpu_only.simulated_time(device).total
        assert hybrid_time < cpu_only.simulated_time(device).total

    def test_invalid_arguments(self, device):
        with pytest.raises(InvalidParameterError):
            HybridTopK(device).plan_split(0, 4, np.dtype(np.float32))

    def test_trace_records_the_split(self, rng):
        result = HybridTopK().run(
            rng.random(10000).astype(np.float32), 16, model_n=1 << 29
        )
        assert 0.0 < result.trace.notes["gpu_fraction"] < 1.0
        assert result.trace.notes["gpu_seconds"] > 0
        assert result.trace.notes["cpu_seconds"] > 0
