"""stream-bench: workload validation, the report, gates, and baselines."""

import pytest

from repro.bench import check_baseline
from repro.errors import InvalidParameterError
from repro.gpu.device import get_device
from repro.streaming.bench import (
    GATE_SPEEDUP,
    StreamBenchReport,
    StreamPoint,
    StreamWorkload,
    run_streaming_benchmark,
)

SMALL = StreamWorkload(
    k=8,
    chunk_rows=256,
    model_chunk_rows=1 << 20,
    window_chunks=8,
    ticks=12,
    decay=0.9,
)


@pytest.fixture(scope="module")
def report():
    return run_streaming_benchmark(SMALL, get_device("titan-x-maxwell"))


class TestWorkloadValidation:
    def test_defaults_are_valid(self):
        workload = StreamWorkload()
        assert workload.window == workload.window_chunks * workload.chunk_rows
        assert workload.model_window == (
            workload.window_chunks * workload.model_chunk_rows
        )

    def test_rejects_k_above_chunk(self):
        with pytest.raises(InvalidParameterError):
            StreamWorkload(k=300, chunk_rows=256)

    def test_rejects_model_chunk_below_functional(self):
        with pytest.raises(InvalidParameterError):
            StreamWorkload(chunk_rows=1 << 12, model_chunk_rows=1 << 10)

    def test_rejects_ticks_short_of_a_window(self):
        # The stream must outlive the window so evictions are exercised.
        with pytest.raises(InvalidParameterError):
            StreamWorkload(window_chunks=16, ticks=8)

    @pytest.mark.parametrize("decay", [0.0, 1.0001])
    def test_rejects_decay_outside_unit_interval(self, decay):
        with pytest.raises(InvalidParameterError):
            StreamWorkload(decay=decay)

    def test_chunks_are_deterministic(self):
        first = SMALL.chunks()
        second = SMALL.chunks()
        assert len(first) == SMALL.ticks
        for a, b in zip(first, second):
            assert (a.values == b.values).all()
            assert (a.gids == b.gids).all()

    def test_to_dict_round_trips(self):
        assert StreamWorkload(**SMALL.to_dict()).to_dict() == SMALL.to_dict()


class TestReport:
    def test_three_arms(self, report):
        arms = {point.arm for point in report.points}
        assert arms == {
            "window-incremental", "window-recompute", "decay-incremental",
        }

    def test_every_arm_bit_equal(self, report):
        assert report.identical
        assert all(point.identical for point in report.points)

    def test_speedup_clears_gate_at_model_scale(self, report):
        assert report.measured_speedup >= GATE_SPEEDUP
        assert report.fast_enough
        assert report.passed

    def test_prediction_present(self, report):
        assert report.predicted_speedup > 1.0

    def test_to_dict_shape(self, report):
        payload = report.to_dict()
        assert payload["format"] == "repro-streaming-bench"
        assert payload["workload"] == SMALL.to_dict()
        assert payload["gates"]["speedup_at_least"] == GATE_SPEEDUP
        assert payload["identical"] is True
        assert payload["passed"] is True
        assert len(payload["points"]) == 3

    def test_render_mentions_verdict(self, report):
        rendered = report.render()
        assert "PASS" in rendered
        assert "speedup" in rendered

    def test_missing_arm_yields_zero_speedup(self):
        empty = StreamBenchReport(workload=SMALL, device="x")
        assert empty.measured_speedup == 0.0
        assert not empty.identical
        assert not empty.passed


class TestBaseline:
    def test_self_baseline_is_clean(self, report):
        assert check_baseline(report, report.to_dict()) == []

    def test_rejects_foreign_format(self, report):
        problems = check_baseline(report, {"format": "repro-serve-bench"})
        assert problems and "not a repro-streaming-bench" in problems[0]

    def test_rejects_workload_mismatch(self, report):
        baseline = report.to_dict()
        baseline["workload"] = dict(baseline["workload"], k=99)
        problems = check_baseline(report, baseline)
        assert problems and "workload differs" in problems[0]

    def test_flags_drifted_milliseconds(self, report):
        baseline = report.to_dict()
        baseline["points"][0]["total_simulated_ms"] *= 2.0
        problems = check_baseline(report, baseline)
        assert any("deviates" in problem for problem in problems)

    def test_flags_drifted_speedup(self, report):
        baseline = report.to_dict()
        baseline["measured_speedup"] *= 3.0
        problems = check_baseline(report, baseline)
        assert any("speedup" in problem for problem in problems)

    def test_flags_missing_arm(self, report):
        baseline = report.to_dict()
        baseline["points"].append(
            StreamPoint(
                arm="window-quantum", ticks=1,
                total_simulated_ms=1.0, mean_tick_ms=1.0, identical=True,
            ).to_dict()
        )
        problems = check_baseline(report, baseline)
        assert problems == [
            "report is missing baseline points[arm=window-quantum]"
        ]

    def test_flags_equality_regression(self, report):
        # A report that lost bit-equality fails its own gate (the command
        # exits 1 on it); the baseline checker holds only the numbers.
        broken = StreamBenchReport(
            workload=SMALL, device=report.device,
            predicted_speedup=report.predicted_speedup,
        )
        for point in report.points:
            broken.points.append(
                StreamPoint(
                    arm=point.arm, ticks=point.ticks,
                    total_simulated_ms=point.total_simulated_ms,
                    mean_tick_ms=point.mean_tick_ms, identical=False,
                )
            )
        failed = [message for ok, message in broken.gates() if not ok]
        assert failed == [
            "an incremental answer is not bit-equal to its recompute oracle"
        ]
        assert not broken.passed
        assert check_baseline(broken, report.to_dict()) == []
