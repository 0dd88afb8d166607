"""The SLO load-sweep benchmark and its baseline gate."""

import copy
import json

import pytest

from repro.errors import InvalidParameterError
from repro.bench import check_baseline
from repro.slo import run_slo_benchmark

RATES = (8.0, 60.0)


@pytest.fixture(scope="module")
def report():
    return run_slo_benchmark(queries=80, rates=RATES, seed=0)


class TestSweep:
    def test_one_point_per_rate(self, report):
        assert [point.rate for point in report.points] == list(RATES)

    def test_calm_rate_is_pristine_and_identical(self, report):
        calm = report.points[0]
        assert calm.pristine and calm.identical and not calm.saturated

    def test_overload_rate_saturates_and_slo_dominates(self, report):
        hot = report.points[1]
        assert hot.saturated
        assert hot.slo.goodput > hot.fifo.goodput
        assert report.dominates

    def test_all_three_gates_hold(self, report):
        assert report.recall_honest
        assert report.exact_below_saturation
        assert report.passed

    def test_empty_rate_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_slo_benchmark(rates=())


class TestSerialization:
    def test_report_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["format"] == "repro-slo-bench"
        assert payload["passed"] is True
        assert len(payload["points"]) == len(RATES)
        assert "rate_per_ms" not in payload["workload"]

    def test_render_mentions_every_rate_and_verdicts(self, report):
        text = report.render()
        for rate in RATES:
            assert f"{rate:.1f}" in text
        assert "dominance" in text and "below satur." in text


class TestBaselineGate:
    def test_matching_baseline_reports_no_problems(self, report):
        assert check_baseline(report, report.to_dict()) == []

    def test_goodput_drift_is_flagged(self, report):
        baseline = copy.deepcopy(report.to_dict())
        baseline["points"][1]["slo"]["goodput"] *= 2.0
        problems = check_baseline(report, baseline)
        assert any("goodput" in problem for problem in problems)

    def test_latency_drift_is_flagged(self, report):
        baseline = copy.deepcopy(report.to_dict())
        gold = baseline["points"][0]["slo"]["classes"]["gold"]
        gold["p99"] *= 10.0
        problems = check_baseline(report, baseline)
        assert any("p99" in problem for problem in problems)

    def test_wrong_format_rejected_outright(self, report):
        assert check_baseline(report, {"format": "something-else"}) == [
            "baseline is not a repro-slo-bench document"
        ]

    def test_workload_mismatch_rejected(self, report):
        baseline = copy.deepcopy(report.to_dict())
        baseline["workload"]["queries"] = 999
        problems = check_baseline(report, baseline)
        assert len(problems) == 1 and "workload" in problems[0]

    def test_missing_rate_is_flagged(self, report):
        baseline = copy.deepcopy(report.to_dict())
        baseline["points"].append(copy.deepcopy(baseline["points"][0]))
        baseline["points"][-1]["rate"] = 99.0
        problems = check_baseline(report, baseline)
        assert problems == ["report is missing baseline points[rate=99.0]"]
