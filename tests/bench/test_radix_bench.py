"""The radix benchmark: workload validation, the exactness / monotonic
large-k / batch-amortization gates, baseline comparison, and CLI exit
codes."""

import json

import numpy as np
import pytest

from repro.bench import check_baseline
from repro.bench.radix import (
    GATE_LARGE_K,
    RadixWorkload,
    run_radix_benchmark,
)
from repro.cli import main
from repro.errors import InvalidParameterError

# The committed-baseline shape at a smaller functional cap: the schedule
# is planned at model scale, so the curve keeps its crossover while the
# functional sweep stays fast enough for the tier-1 suite.
WORKLOAD = dict(
    model_n=1 << 26,
    ks=(64, 1024, 2048),
    functional_cap=1 << 16,
    batch_sizes=(1, 2, 4),
    batch_n=1024,
    batch_k=32,
)


@pytest.fixture(scope="module")
def report():
    return run_radix_benchmark(RadixWorkload(**WORKLOAD))


class TestWorkloadValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_n": 0},
            {"ks": ()},
            {"ks": (64, 32)},
            {"ks": (64, 64)},
            {"ks": (0, 64)},
            {"ks": (64, 1 << 20), "functional_cap": 1 << 16},
            {"batch_sizes": ()},
            {"batch_sizes": (4, 2)},
            {"batch_sizes": (0, 2)},
            {"batch_k": 0},
            {"batch_k": 4096, "batch_n": 2048},
        ],
    )
    def test_bad_workloads_raise(self, kwargs):
        with pytest.raises(InvalidParameterError):
            RadixWorkload(**kwargs)

    def test_data_is_deterministic(self):
        workload = RadixWorkload(**WORKLOAD)
        np.testing.assert_array_equal(workload.data(), workload.data())
        np.testing.assert_array_equal(
            workload.batch_data(4), workload.batch_data(4)
        )


class TestReport:
    def test_every_point_is_exact(self, report):
        assert report.identical
        assert all(point.identical for point in report.points)
        assert all(point.identical for point in report.batch_points)

    def test_the_monotonic_large_k_gate_holds(self, report):
        assert report.large_k_monotonic
        speedups = [
            point.speedup_vs_bitonic
            for point in report.points
            if point.speedup_vs_bitonic is not None
        ]
        assert speedups == sorted(speedups)
        gated = report.gated_points()
        assert gated and all(point.k >= GATE_LARGE_K for point in gated)
        assert all(
            point.radik_ms <= point.strawman_ms for point in gated
        )
        assert gated[-1].radik_ms <= gated[-1].bitonic_ms

    def test_the_fused_batch_amortizes(self, report):
        assert report.batch_amortizes
        assert report.passed
        for point in report.batch_points:
            if point.batch >= 2:
                assert point.batched_ms < point.per_query_ms
                assert point.speedup > 1.0

    def test_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["format"] == "repro-radix-bench"
        assert payload["passed"] is True
        assert payload["gates"]["large_k_from"] == GATE_LARGE_K
        assert check_baseline(report, payload) == []

    def test_render_mentions_the_gate(self, report):
        rendered = report.render()
        assert "PASS" in rendered
        assert "batch" in rendered
        assert str(GATE_LARGE_K) in rendered


class TestBaseline:
    def test_k_point_regression_is_reported(self, report):
        baseline = report.to_dict()
        baseline["points"][0]["radik_ms"] /= 2.0
        problems = check_baseline(report, baseline)
        assert problems and "radik_ms" in problems[0]

    def test_batch_point_regression_is_reported(self, report):
        baseline = report.to_dict()
        baseline["batch_points"][-1]["batched_ms"] /= 2.0
        problems = check_baseline(report, baseline)
        assert problems and "batched_ms" in problems[0]

    def test_missing_point_is_reported(self, report):
        baseline = report.to_dict()
        baseline["points"].append(dict(baseline["points"][-1], k=4096))
        assert any(
            "missing" in problem for problem in check_baseline(report, baseline)
        )

    def test_workload_mismatch_is_reported(self, report):
        baseline = report.to_dict()
        baseline["workload"]["batch_k"] += 1
        assert check_baseline(report, baseline)

    def test_foreign_format_is_rejected(self, report):
        assert check_baseline(report, {"format": "other"}) == [
            "baseline is not a repro-radix-bench document"
        ]


class TestCli:
    ARGS = [
        "radix-bench",
        "--n", str(WORKLOAD["model_n"]),
        *[part for k in WORKLOAD["ks"] for part in ("--k", str(k))],
        *[
            part
            for batch in WORKLOAD["batch_sizes"]
            for part in ("--batch", str(batch))
        ],
        "--batch-n", str(WORKLOAD["batch_n"]),
        "--batch-k", str(WORKLOAD["batch_k"]),
        "--functional-cap", str(WORKLOAD["functional_cap"]),
    ]

    def test_passing_run_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        status = main([*self.ARGS, "--json", "--out", str(out)])
        assert status == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert json.loads(capsys.readouterr().out) == payload

    def test_baseline_gate_round_trips(self, capsys, tmp_path):
        out = tmp_path / "baseline.json"
        assert main([*self.ARGS, "--json", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*self.ARGS, "--baseline", str(out)]) == 0

    def test_invalid_k_grid_exits_three(self, capsys):
        status = main(["radix-bench", "--k", "64", "--k", "32"])
        assert status == 3
        assert "InvalidParameterError" in capsys.readouterr().err

    def test_invalid_batch_k_exits_three(self, capsys):
        status = main(["radix-bench", "--batch-k", "0"])
        assert status == 3
        assert "InvalidParameterError" in capsys.readouterr().err
