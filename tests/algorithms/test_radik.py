"""RadiK adaptive radix top-k: exactness, adversarial inputs, the pass
schedule (adaptive widths, deferral, model-scale planning), and the
batched fused operator."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.algorithms.radik import (
    DEFER,
    MAX_DIGIT_BITS,
    MIN_DIGIT_BITS,
    RadiKTopK,
    batched_radik_topk,
    buffer_budget,
    plan_width,
)
from repro.algorithms.registry import create
from repro.data.distributions import bucket_killer, uniform_floats
from repro.errors import InvalidParameterError

DTYPES = [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64]


def make_data(dtype, n, rng):
    if np.dtype(dtype).kind == "f":
        return (rng.standard_normal(n) * 1000).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, n, dtype=dtype)


class TestPlanning:
    def test_width_is_log2_of_the_surplus(self):
        assert plan_width(2.0, 32) == MIN_DIGIT_BITS
        assert plan_width(256.0, 32) == 8
        assert plan_width(1 << 20, 32) == MAX_DIGIT_BITS

    def test_width_clamps_to_the_remaining_bits(self):
        assert plan_width(1 << 20, 3) == 3
        assert plan_width(2.0, 2) == 2

    def test_budget_grows_with_k(self):
        assert buffer_budget(1) == 4096
        assert buffer_budget(1024) == 32 * 1024
        assert buffer_budget(1024) > buffer_budget(64)


class TestCorrectness:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_reference_bit_for_bit(self, dtype, rng):
        data = make_data(dtype, 5000, rng)
        for k in (1, 7, 64, 512):
            result = RadiKTopK().run(data, k)
            expected_values, expected_indices = reference_topk(data, k)
            assert np.array_equal(result.values, expected_values)
            assert np.array_equal(result.indices, expected_indices)

    def test_duplicate_heavy_ties_resolve_canonically(self, rng):
        data = rng.integers(0, 4, 4096).astype(np.float32)
        result = RadiKTopK().run(data, 1000)
        expected_values, expected_indices = reference_topk(data, 1000)
        assert np.array_equal(result.values, expected_values)
        assert np.array_equal(result.indices, expected_indices)

    def test_registry_creates_the_algorithm(self, rng):
        algorithm = create("radik")
        data = rng.random(1024).astype(np.float32)
        result = algorithm.run(data, 16)
        assert result.algorithm == "radik"
        expected_values, _ = reference_topk(data, 16)
        assert np.array_equal(result.values, expected_values)


class TestAdversarialInputs:
    def test_all_equal_input(self):
        data = np.full(4096, 2.5, dtype=np.float32)
        result = RadiKTopK().run(data, 100)
        assert (result.values == 2.5).all()
        assert np.array_equal(result.indices, np.arange(100))

    def test_bucket_killer_matches_reference(self):
        data = bucket_killer(1 << 14)
        result = RadiKTopK().run(data, 64)
        expected_values, expected_indices = reference_topk(data, 64)
        assert np.array_equal(result.values, expected_values)
        assert np.array_equal(result.indices, expected_indices)

    def test_infinity_mix_matches_reference(self, rng):
        data = rng.standard_normal(2048).astype(np.float32)
        data[5:15] = np.inf
        data[20:30] = -np.inf
        result = RadiKTopK().run(data, 40)
        expected_values, expected_indices = reference_topk(data, 40)
        assert np.array_equal(result.values, expected_values)
        assert np.array_equal(result.indices, expected_indices)

    def test_nan_orders_last(self, rng):
        """NaN takes the lowest canonical code, so it ranks below every
        real value, as in the oracle."""
        data = rng.random(512).astype(np.float32)
        data[9] = np.nan
        data[17] = np.inf
        result = RadiKTopK().run(data, 2)
        assert result.indices.tolist() == reference_topk(data, 2)[1].tolist()
        assert result.indices[0] == 17 and 9 not in result.indices

    def test_k_equals_n_runs_zero_passes(self, rng):
        data = rng.integers(0, 16, 512).astype(np.float32)
        result = RadiKTopK().run(data, 512)
        expected_values, expected_indices = reference_topk(data, 512)
        assert np.array_equal(result.values, expected_values)
        assert np.array_equal(result.indices, expected_indices)
        assert result.trace.notes["passes"] == 0

    def test_k_equals_one(self, rng):
        data = rng.random(4096).astype(np.float32)
        result = RadiKTopK().run(data, 1)
        assert result.values[0] == data.max()
        assert result.indices[0] == int(np.argmax(data))


class TestPassSchedule:
    def test_widths_stay_within_the_clamp(self, rng):
        result = RadiKTopK().run(rng.random(1 << 16).astype(np.float32), 64)
        passes = result.trace.notes["passes"]
        assert passes >= 1
        for index in range(passes):
            assert 1 <= result.trace.notes[f"width_{index}"] <= MAX_DIGIT_BITS

    def test_bucket_killer_defers_every_pass(self):
        """Survivors never fit the buffer budget, so no pass scatters —
        the write-friendly deferral the strawman lacks."""
        result = RadiKTopK().run(bucket_killer(1 << 14), 8)
        notes = result.trace.notes
        assert notes["deferred_passes"] == notes["passes"] > 0
        kernel_names = [kernel.name for kernel in result.trace.kernels]
        assert not any("filter" in name or "compact" in name for name in kernel_names)

    def test_uniform_input_filters_once_then_compacts(self, rng):
        result = RadiKTopK().run(rng.random(1 << 16).astype(np.float32), 64)
        actions = [
            result.trace.notes[f"action_{index}"]
            for index in range(result.trace.notes["passes"])
        ]
        assert actions.count("filter") == 1
        assert DEFER not in actions[actions.index("filter") :]

    def test_model_n_widens_the_first_digit(self, rng):
        """The schedule is planned at model scale: the same functional
        payload plans a wider first digit when it stands in for a much
        larger input."""
        data = rng.random(4096).astype(np.float32)
        small = RadiKTopK().run(data, 64)
        large = RadiKTopK().run(data, 64, model_n=1 << 26)
        assert large.trace.notes["width_0"] == MAX_DIGIT_BITS
        assert large.trace.notes["width_0"] > small.trace.notes["width_0"]

    def test_model_n_does_not_change_the_answer(self, rng):
        data = rng.random(4096).astype(np.float32)
        plain = RadiKTopK().run(data, 64)
        modeled = RadiKTopK().run(data, 64, model_n=1 << 26)
        assert np.array_equal(plain.values, modeled.values)
        assert np.array_equal(plain.indices, modeled.indices)

    def test_metrics_record_width_and_fractions(self, rng):
        from repro import observability as obs

        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            result = RadiKTopK().run(uniform_floats(1 << 14), 64)
        passes = result.trace.notes["passes"]
        for name in (
            "radik.survivor_fraction",
            "radik.emitted_fraction",
            "radik.digit_width",
        ):
            assert observation.metrics.histogram(name).count == passes


class TestBatched:
    def test_rows_match_the_per_row_reference(self, rng):
        matrix = rng.random((6, 2048)).astype(np.float32)
        result = batched_radik_topk(matrix, 32)
        assert result.algorithm == "batched-radik"
        assert result.values.shape == (6, 32)
        assert result.indices.shape == (6, 32)
        for row in range(6):
            expected_values, expected_indices = reference_topk(matrix[row], 32)
            assert np.array_equal(result.values[row], expected_values)
            assert np.array_equal(result.indices[row], expected_indices)

    def test_rows_match_the_single_operator_bit_for_bit(self, rng):
        matrix = rng.integers(0, 8, (4, 1024)).astype(np.float32)
        result = batched_radik_topk(matrix, 100)
        single = RadiKTopK()
        for row in range(4):
            expected = single.run(matrix[row], 100)
            assert np.array_equal(result.values[row], expected.values)
            assert np.array_equal(result.indices[row], expected.indices)

    def test_fused_launches_do_not_scale_with_the_batch(self, rng):
        """Every fused pass is one launch triple serving all rows, so a
        bigger batch must not launch proportionally more kernels."""
        small = batched_radik_topk(rng.random((2, 2048)).astype(np.float32), 64)
        large = batched_radik_topk(rng.random((8, 2048)).astype(np.float32), 64)
        assert large.trace.num_launches <= small.trace.num_launches + 3
        per_row_launches = sum(
            RadiKTopK().run(rng.random(2048).astype(np.float32), 64).trace.num_launches
            for _ in range(8)
        )
        assert large.trace.num_launches < per_row_launches

    def test_batched_amortizes_simulated_time(self, device, rng):
        from repro.gpu.timing import trace_time

        matrix = rng.random((8, 2048)).astype(np.float32)
        fused = batched_radik_topk(matrix, 64, device=device)
        per_query = sum(
            RadiKTopK(device).run(matrix[row], 64).simulated_ms(device)
            for row in range(8)
        )
        assert trace_time(fused.trace, device).total_ms < per_query

    def test_model_rows_scale_the_trace_not_the_answer(self, device, rng):
        matrix = rng.random((4, 1024)).astype(np.float32)
        plain = batched_radik_topk(matrix, 16, device=device)
        modeled = batched_radik_topk(matrix, 16, device=device, model_rows=64)
        assert np.array_equal(plain.values, modeled.values)
        assert modeled.trace.notes["batch_rows"] == 64
        from repro.gpu.timing import trace_time

        assert (
            trace_time(modeled.trace, device).total_ms
            > trace_time(plain.trace, device).total_ms
        )

    @pytest.mark.parametrize(
        "matrix,k",
        [
            (np.zeros(16, dtype=np.float32), 4),  # 1-D
            (np.zeros((0, 16), dtype=np.float32), 4),  # no rows
            (np.zeros((2, 16), dtype=np.float32), 0),  # bad k
            (np.zeros((2, 16), dtype=np.float32), 17),  # k > n
            (np.zeros((2, 16), dtype=np.float16), 4),  # unsupported dtype
        ],
    )
    def test_invalid_inputs_raise(self, matrix, k):
        with pytest.raises(InvalidParameterError):
            batched_radik_topk(matrix, k)
