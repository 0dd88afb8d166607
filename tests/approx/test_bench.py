"""The approx-bench sweep: report structure, gates, baseline checking,
and the committed headline claim."""

import json
from pathlib import Path

import pytest

from repro.approx import ApproxWorkload, run_approx_benchmark
from repro.approx.bench import (
    DEFAULT_BUCKETS,
    HEADLINE_K,
    HEADLINE_N,
    MIN_HEADLINE_RECALL,
    MIN_HEADLINE_SPEEDUP,
    REPORT_FORMAT,
)
from repro.bench import check_baseline
from repro.errors import InvalidParameterError

BASELINE_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "baselines"
    / "BENCH_approx.json"
)

SMALL = ApproxWorkload(
    ns=(1 << 16,), ks=(32,), buckets=(DEFAULT_BUCKETS, 8), functional_cap=1 << 14
)


@pytest.fixture(scope="module")
def small_report():
    from repro.gpu.device import get_device

    return run_approx_benchmark(SMALL, device=get_device("titan-x-maxwell"))


class TestSweep:
    def test_covers_the_grid(self, small_report):
        assert len(small_report.points) == 2
        for point in small_report.points:
            assert point.exact_ms > 0 and point.approx_ms > 0
            assert 0.0 <= point.measured <= 1.0
            assert 0.0 < point.expected <= 1.0

    def test_headline_absent_from_small_sweep(self, small_report):
        assert small_report.headline is None
        assert not small_report.passed

    def test_deterministic_per_seed(self, device):
        again = run_approx_benchmark(SMALL, device=device)
        first = [p.to_dict() for p in run_approx_benchmark(SMALL, device=device).points]
        second = [p.to_dict() for p in again.points]
        assert first == second

    def test_render_and_dict_round(self, small_report):
        doc = small_report.to_dict()
        assert doc["format"] == REPORT_FORMAT
        assert doc["workload"] == SMALL.to_dict()
        assert len(doc["points"]) == 2
        text = small_report.render()
        assert "headline" in text

    def test_invalid_workloads_raise(self):
        with pytest.raises(InvalidParameterError):
            ApproxWorkload(ns=())
        with pytest.raises(InvalidParameterError):
            ApproxWorkload(ks=(0,))
        with pytest.raises(InvalidParameterError):
            ApproxWorkload(functional_cap=16, ks=(64,))


class TestBaselineGate:
    def test_round_trip_is_clean(self, small_report):
        assert check_baseline(small_report, small_report.to_dict()) == []

    def test_wrong_format_rejected(self, small_report):
        assert check_baseline(small_report, {"format": "other"}) == [
            f"baseline is not a {REPORT_FORMAT} document"
        ]

    def test_workload_mismatch_rejected(self, small_report):
        baseline = small_report.to_dict()
        baseline["workload"] = dict(baseline["workload"], seed=99)
        problems = check_baseline(small_report, baseline)
        assert len(problems) == 1 and "workload" in problems[0]

    def test_simulated_regression_detected(self, small_report):
        baseline = small_report.to_dict()
        baseline["points"][0]["approx_ms"] /= 2.0
        problems = check_baseline(small_report, baseline)
        assert any("approx_ms" in p for p in problems)

    def test_recall_regression_detected(self, small_report):
        baseline = small_report.to_dict()
        baseline["points"][1]["measured_recall"] = 1.1
        problems = check_baseline(small_report, baseline)
        assert any("recall" in p for p in problems)

    def test_missing_point_detected(self, small_report):
        baseline = small_report.to_dict()
        baseline["points"].append(dict(baseline["points"][0], k=48))
        problems = check_baseline(small_report, baseline)
        assert any("missing" in p for p in problems)


class TestCommittedBaseline:
    def test_baseline_exists_and_carries_a_passing_headline(self):
        baseline = json.loads(BASELINE_PATH.read_text())
        assert baseline["format"] == REPORT_FORMAT
        assert baseline["passed"] is True
        head = baseline["headline"]
        assert head["model_n"] == HEADLINE_N and head["k"] == HEADLINE_K
        assert head["speedup"] >= MIN_HEADLINE_SPEEDUP
        assert head["measured_recall"] >= MIN_HEADLINE_RECALL

    def test_regenerated_sweep_matches_the_committed_baseline(self, device):
        baseline = json.loads(BASELINE_PATH.read_text())
        report = run_approx_benchmark(
            ApproxWorkload(**baseline["workload"]), device=device
        )
        assert report.passed
        assert check_baseline(report, baseline) == []
