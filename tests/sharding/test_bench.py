"""The sharding benchmark: workload validation, the exactness and
monotonicity gates, baseline comparison, and CLI exit codes."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.bench import check_baseline
from repro.sharding import ShardWorkload, run_sharding_benchmark
from repro.sharding.bench import GATE_MAX_SHARDS


@pytest.fixture(scope="module")
def report():
    # A small modeled size keeps the sweep fast; the scaling property is
    # scale-free because the concurrent phase divides the modeled rows.
    return run_sharding_benchmark(
        ShardWorkload(model_n=1 << 23, k=64, functional_cap=1 << 16)
    )


class TestWorkloadValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_n": 0},
            {"k": 0},
            {"k": 1 << 30},
            {"shard_counts": ()},
            {"shard_counts": (1, 4, 2)},
            {"shard_counts": (1, 1, 2)},
            {"shard_counts": (0, 2)},
            {"functional_cap": 4},
        ],
    )
    def test_bad_workloads_raise(self, kwargs):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            ShardWorkload(**kwargs)

    def test_data_is_deterministic(self):
        workload = ShardWorkload(model_n=1 << 20, functional_cap=1 << 14)
        np.testing.assert_array_equal(workload.data(), workload.data())


class TestReport:
    def test_all_points_are_exact(self, report):
        assert report.identical
        assert all(point.identical for point in report.points)

    def test_scaling_is_monotonic_through_the_gate(self, report):
        assert report.monotonic
        assert report.passed
        gated = report.gated_points()
        assert [point.shards for point in gated] == [
            shards
            for shards in report.workload.shard_counts
            if shards <= GATE_MAX_SHARDS
        ]
        times = [point.simulated_ms for point in gated]
        assert times == sorted(times, reverse=True)

    def test_speedup_improves_one_through_four_shards(self, report):
        by_shards = {point.shards: point for point in report.points}
        assert report.speedup(by_shards[4]) > report.speedup(by_shards[2]) > 1.0

    def test_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["format"] == "repro-sharding-bench"
        assert payload["passed"] is True
        assert check_baseline(report, payload) == []

    def test_render_mentions_the_gate(self, report):
        rendered = report.render()
        assert "PASS" in rendered
        assert "shards" in rendered


class TestBaseline:
    def test_regression_is_reported(self, report):
        baseline = report.to_dict()
        baseline["points"][1]["simulated_ms"] /= 2.0
        problems = check_baseline(report, baseline)
        assert problems and "simulated_ms" in problems[0]

    def test_workload_mismatch_is_reported(self, report):
        baseline = report.to_dict()
        baseline["workload"]["k"] += 1
        assert check_baseline(report, baseline)

    def test_foreign_format_is_rejected(self, report):
        assert check_baseline(report, {"format": "other"}) == [
            "baseline is not a repro-sharding-bench document"
        ]


class TestCli:
    ARGS = [
        "shard-bench",
        "--n", str(1 << 23),
        "--k", "64",
        "--functional-cap", str(1 << 16),
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

    def test_invalid_shard_counts_exit_three(self, capsys):
        status = main(
            ["shard-bench", "--shards", "4", "--shards", "2"]
        )
        captured = capsys.readouterr()
        assert status == 3
        assert "InvalidParameterError" in captured.err

    def test_invalid_k_exits_three(self, capsys):
        status = main(["shard-bench", "--k", "0"])
        assert status == 3
        assert "InvalidParameterError" in capsys.readouterr().err
