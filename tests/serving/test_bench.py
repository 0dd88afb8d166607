"""Serve-bench: identity guarantee, cache effectiveness, baseline gating."""

import dataclasses

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.bench import check_baseline
from repro.serving import Workload, run_serving_benchmark


@pytest.fixture(scope="module")
def report():
    return run_serving_benchmark(
        Workload(queries=120, shapes=3, n=256, k=4, seed=11)
    )


class TestWorkload:
    def test_generation_is_deterministic(self):
        workload = Workload(queries=10, shapes=2, n=64, k=4, seed=3)
        first = workload.generate()
        second = workload.generate()
        for (a, ka), (b, kb) in zip(first, second):
            assert ka == kb and np.array_equal(a, b)

    def test_shapes_cycle_through_the_stream(self):
        stream = Workload(queries=6, shapes=3, n=64, k=4, seed=0).generate()
        assert [k for _, k in stream] == [4, 5, 6, 4, 5, 6]

    def test_invalid_workloads_rejected(self):
        with pytest.raises(InvalidParameterError):
            Workload(queries=0)
        with pytest.raises(InvalidParameterError):
            Workload(shapes=0)
        with pytest.raises(InvalidParameterError):
            Workload(n=0)


class TestReport:
    def test_served_results_bit_equal_sequential(self, report):
        assert report.identical

    def test_repeated_shapes_hit_the_plan_cache(self, report):
        # 120 queries over 3 shapes -> 3 misses, 117 hits.
        assert report.cache["misses"] == 3
        assert report.hit_rate > 0.95

    def test_queries_ride_fused_launches(self, report):
        assert report.batcher["batches"] >= 1
        # The first dispatcher drain may catch a straggler alone; everything
        # else must ride a fused launch.
        served = report.batcher["batched_queries"] + report.batcher["single_queries"]
        assert served == 120
        assert report.batcher["batched_queries"] >= 100

    def test_simulated_time_improves(self, report):
        assert report.served.simulated_ms < report.sequential.simulated_ms

    def test_to_dict_round_trips_the_numbers(self, report):
        payload = report.to_dict()
        assert payload["format"] == "repro-serving-bench"
        assert payload["identical"] is True
        assert payload["workload"]["queries"] == 120
        assert payload["served"]["simulated_ms"] == pytest.approx(
            report.served.simulated_ms
        )
        assert payload["plan_cache"]["hit_rate"] == pytest.approx(
            report.hit_rate
        )

    def test_render_mentions_the_verdict(self, report):
        text = report.render()
        assert "bit-equal" in text
        assert "hit rate" in text


class TestAblations:
    def test_no_cache_replans_every_query(self):
        report = run_serving_benchmark(
            Workload(queries=30, shapes=2, n=128, k=4, seed=5), cache=False
        )
        assert report.cache["misses"] == 30
        assert report.hit_rate == 0.0
        assert report.identical

    def test_no_batching_serves_per_query(self):
        report = run_serving_benchmark(
            Workload(queries=30, shapes=2, n=128, k=4, seed=5), batching=False
        )
        assert report.batcher["batches"] == 0
        assert report.batcher["single_queries"] == 30
        assert report.identical


class TestBaselineGate:
    def test_fresh_report_passes_its_own_baseline(self, report):
        assert check_baseline(report, report.to_dict()) == []

    def test_simulated_regression_detected(self, report):
        baseline = report.to_dict()
        baseline["served"]["simulated_ms"] /= 2.0
        problems = check_baseline(report, baseline)
        assert problems and "served" in problems[0]

    def test_hit_rate_regression_detected(self, report):
        baseline = report.to_dict()
        baseline["plan_cache"]["hit_rate"] = 1.0
        # current hit rate is 117/120 = 0.975 -> within the 5-point margin
        assert check_baseline(report, baseline) == []
        baseline["plan_cache"]["hit_rate"] = 1.5
        assert check_baseline(report, baseline)

    def test_lost_batching_is_flagged(self, report):
        unbatched = dataclasses.replace(
            report, batcher={**report.batcher, "batches": 0}
        )
        assert check_baseline(unbatched, report.to_dict()) == [
            f"batcher.batches fell to 0 from baseline {report.batcher['batches']}"
        ]

    def test_fewer_riders_per_launch_is_flagged(self, report):
        batches = report.batcher["batches"]
        split = dataclasses.replace(
            report, batcher={**report.batcher, "batches": batches + 1}
        )
        assert check_baseline(split, report.to_dict()) == [
            f"batcher.batches {batches + 1} exceeds baseline {batches}"
        ]
        merged = dataclasses.replace(
            report, batcher={**report.batcher, "batches": max(1, batches - 1)}
        )
        assert check_baseline(merged, report.to_dict()) == []

    def test_workload_mismatch_is_flagged(self, report):
        baseline = report.to_dict()
        baseline["workload"]["queries"] = 999
        problems = check_baseline(report, baseline)
        assert problems and "workload" in problems[0]

    def test_wrong_document_type_is_flagged(self, report):
        assert check_baseline(report, {"format": "something-else"})
