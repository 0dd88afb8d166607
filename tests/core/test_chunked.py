"""Tests for out-of-core chunked top-k."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import reference_topk
from repro.core.chunked import ChunkedTopK, chunked_topk

SMALL_BUDGET = 64 * 1024  # force many chunks at test sizes


class TestCorrectness:
    @pytest.mark.parametrize("n,k", [(100, 5), (10000, 64), (50000, 500)])
    def test_matches_reference(self, n, k, rng):
        data = rng.random(n).astype(np.float32)
        result = chunked_topk(data, k, memory_budget_bytes=SMALL_BUDGET)
        expected, _ = reference_topk(data, k)
        assert np.array_equal(result.values, expected)
        assert np.array_equal(np.sort(data[result.indices])[::-1], expected)

    def test_single_chunk_when_data_fits(self, rng):
        data = rng.random(1000).astype(np.float32)
        result = chunked_topk(data, 10)
        assert result.trace.notes["chunks"] == 1

    def test_topk_spanning_many_chunks(self, rng):
        """The global top-k concentrated in one chunk must still surface."""
        data = rng.random(20000).astype(np.float32)
        data[15000:15100] += 10.0  # all winners in one late chunk
        result = chunked_topk(data, 50, memory_budget_bytes=SMALL_BUDGET)
        assert (result.indices >= 15000).all()
        assert (result.indices < 15100).all()

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_property_random(self, seed):
        generator = np.random.default_rng(seed)
        n = int(generator.integers(10, 5000))
        k = int(generator.integers(1, min(n, 200) + 1))
        data = generator.random(n).astype(np.float32)
        result = chunked_topk(data, k, memory_budget_bytes=SMALL_BUDGET)
        expected, _ = reference_topk(data, k)
        assert np.array_equal(result.values, expected)

    def test_works_with_other_algorithms(self, rng):
        data = rng.random(20000).astype(np.float32)
        result = chunked_topk(
            data, 16, algorithm="radix-select", memory_budget_bytes=SMALL_BUDGET
        )
        expected, _ = reference_topk(data, 16)
        assert np.array_equal(result.values, expected)
        assert result.algorithm == "chunked-radix-select"


    def test_ties_and_nan_take_the_oracles_rows(self, rng):
        # Duplicates spanning chunks go to the lower row; NaN ranks last.
        data = rng.integers(0, 4, 20000).astype(np.float32)
        data[rng.choice(20000, 19000, replace=False)] = np.nan
        for k in (16, 1500):
            result = chunked_topk(data, k, memory_budget_bytes=SMALL_BUDGET)
            expected_values, expected_rows = reference_topk(data, k)
            assert np.array_equal(result.indices, expected_rows)
            assert np.array_equal(result.values, expected_values, equal_nan=True)


class TestPipelineTiming:
    def test_plan_for_oversized_input(self, device):
        """2^32 floats (17 GiB) do not fit the 12 GiB card: multiple chunks."""
        runner = ChunkedTopK(device)
        plan = runner.plan(1 << 32, 64, np.dtype(np.float32))
        assert plan.num_chunks >= 2
        assert plan.chunk_elements * 4 <= device.global_memory_size

    def test_overlap_beats_serial(self, rng, device):
        data = rng.random(10000).astype(np.float32)
        overlapped = chunked_topk(
            data, 32, device=device, memory_budget_bytes=SMALL_BUDGET,
            model_n=1 << 32,
        )
        serial = chunked_topk(
            data, 32, device=device, overlap=False,
            memory_budget_bytes=SMALL_BUDGET, model_n=1 << 32,
        )
        assert overlapped.simulated_ms(device) < serial.simulated_ms(device)

    def test_overlap_hides_the_cheaper_stage(self, device):
        """With many chunks, pipeline time approaches
        chunks * max(transfer, compute)."""
        runner = ChunkedTopK(device)
        plan = runner.plan(1 << 33, 64, np.dtype(np.float32))
        assert plan.num_chunks > 2
        ideal = plan.num_chunks * max(
            plan.transfer_seconds_per_chunk, plan.compute_seconds_per_chunk
        )
        assert plan.pipeline_seconds <= ideal * 1.2
        assert plan.overlap_efficiency > 0.8

    def test_transfer_bound_at_pcie_speeds(self, device):
        """PCIe at 12 GB/s is far below the 251 GB/s global bandwidth, so
        the pipeline is transfer-bound and the total approaches
        total_bytes / pcie_bandwidth."""
        runner = ChunkedTopK(device)
        plan = runner.plan(1 << 33, 64, np.dtype(np.float32))
        total_bytes = (1 << 33) * 4
        lower_bound = total_bytes / device.pcie_bandwidth
        assert plan.pipeline_seconds >= lower_bound * 0.99
        assert plan.pipeline_seconds <= lower_bound * 1.3


class TestPlanEdgeCases:
    def test_chunk_never_smaller_than_k(self, device):
        """A chunk must hold at least k elements or the per-chunk top-k is
        ill-defined; tiny budgets clamp up to k."""
        runner = ChunkedTopK(device, memory_budget_bytes=64)
        plan = runner.plan(10000, 100, np.dtype(np.float32))
        assert plan.chunk_elements >= 100

    def test_single_element_chunks_still_correct(self, rng):
        data = rng.random(500).astype(np.float32)
        result = chunked_topk(data, 1, memory_budget_bytes=8)
        assert result.values[0] == data.max()

    def test_double_buffering_halves_the_budget(self, device):
        runner = ChunkedTopK(device, memory_budget_bytes=1 << 20)
        plan = runner.plan(1 << 22, 16, np.dtype(np.float32))
        assert plan.chunk_elements <= (1 << 20) // 2 // 4
