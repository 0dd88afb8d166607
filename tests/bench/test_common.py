"""The shared bench-CLI plumbing every benchmark front door rides on."""

import argparse
import json
import math

from repro.bench import check_baseline
from repro.bench.common import (
    BASELINE_TOLERANCE,
    Gate,
    add_report_arguments,
    apply_baseline,
    apply_gates,
    drifted,
    finish_report,
    write_report,
)


class FakeReport:
    BASELINE_GATES = (Gate("value"),)

    def __init__(self, value=1.0, gates=()):
        self.value = value
        self._gates = list(gates)

    def gates(self):
        return self._gates

    def to_dict(self):
        return {"format": "fake", "workload": {}, "value": self.value}

    def render(self):
        return f"value: {self.value}"


def fake_baseline(value):
    return {"format": "fake", "workload": {}, "value": value}


def parse(argv, baseline_name="BENCH_fake.json"):
    parser = argparse.ArgumentParser()
    add_report_arguments(parser, baseline_name)
    return parser.parse_args(argv)


class TestDrifted:
    def test_inside_band(self):
        assert not drifted(1.0, 1.0)
        assert not drifted(1.14, 1.0)
        assert not drifted(0.86, 1.0)

    def test_outside_band(self):
        assert drifted(1.16, 1.0)
        assert drifted(0.84, 1.0)

    def test_zero_expectation_has_absolute_floor(self):
        # A zero baseline must not demand exact float equality.
        assert not drifted(0.0, 0.0)
        assert not drifted(1e-10, 0.0)
        assert drifted(0.5, 0.0)

    def test_custom_tolerance(self):
        assert drifted(1.2, 1.0, tolerance=0.1)
        assert not drifted(1.2, 1.0, tolerance=0.25)

    def test_band_matches_published_tolerance(self):
        assert BASELINE_TOLERANCE == 0.15

    def test_nan_on_either_side_is_drift(self):
        assert drifted(math.nan, 1.0)
        assert drifted(1.0, math.nan)
        assert drifted(math.nan, math.nan)

    def test_infinity_on_either_side_is_drift(self):
        assert drifted(math.inf, 1.0)
        assert drifted(1.0, -math.inf)
        assert drifted(math.inf, math.inf)


class TestArguments:
    def test_wires_the_shared_flags(self):
        arguments = parse(
            ["--json", "--out", "x.json", "--baseline", "b.json"]
        )
        assert arguments.json and arguments.out == "x.json"
        assert arguments.baseline == "b.json"

    def test_baseline_flag_is_optional(self):
        parser = argparse.ArgumentParser()
        add_report_arguments(parser, baseline_name=None)
        arguments = parser.parse_args([])
        assert not hasattr(arguments, "baseline")


class TestWriteReport:
    def test_renders_text_by_default(self, capsys):
        write_report(FakeReport(), parse([]))
        assert capsys.readouterr().out.strip() == "value: 1.0"

    def test_json_flag_prints_payload(self, capsys):
        payload = write_report(FakeReport(2.0), parse(["--json"]))
        assert payload == FakeReport(2.0).to_dict()
        assert json.loads(capsys.readouterr().out) == payload

    def test_out_writes_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        write_report(FakeReport(), parse(["--out", str(artifact)]))
        capsys.readouterr()
        assert json.loads(artifact.read_text()) == FakeReport().to_dict()


class TestGatesAndBaseline:
    def test_passing_gates_exit_zero(self, capsys):
        assert apply_gates([(True, "fine"), (True, "also fine")]) == 0
        assert capsys.readouterr().err == ""

    def test_each_failed_gate_is_one_stderr_line(self, capsys):
        assert apply_gates([(False, "first"), (True, "ok"),
                            (False, "second")]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 2
        assert "first" in err and "second" in err

    def test_no_baseline_path_is_a_pass(self):
        assert apply_baseline(FakeReport(), None) == 0

    def test_baseline_within_tolerance_passes(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(fake_baseline(1.05)))
        assert apply_baseline(FakeReport(1.0), str(path)) == 0

    def test_baseline_drift_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(fake_baseline(2.0)))
        assert apply_baseline(FakeReport(1.0), str(path)) == 1
        assert "baseline regression:" in capsys.readouterr().err


class TestFinishReport:
    def test_full_tail(self, tmp_path, capsys):
        artifact = tmp_path / "out.json"
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps(fake_baseline(1.0)))
        status = finish_report(
            FakeReport(1.0, gates=[(True, "gate holds")]),
            parse(["--out", str(artifact), "--baseline", str(baseline)]),
        )
        assert status == 0
        assert artifact.exists()
        capsys.readouterr()

    def test_gate_failure_dominates(self, capsys):
        status = finish_report(
            FakeReport(gates=[(False, "gate broke")]), parse([])
        )
        assert status == 1
        assert "gate broke" in capsys.readouterr().err

    def test_baseline_failure_dominates(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps(fake_baseline(9.0)))
        status = finish_report(
            FakeReport(1.0, gates=[(True, "fine")]),
            parse(["--baseline", str(baseline)]),
        )
        assert status == 1
        capsys.readouterr()


class CurveReport:
    """A report with a keyed point list, for the checker's path rules."""

    BASELINE_GATES = (
        Gate("points[n,k].ms"),
        Gate("points[n,k].recall", "floor", 0.01),
        Gate("points[n,k].extra.p99", optional=True),
        Gate("launches", "ceiling"),
    )

    def __init__(self, points, launches=2):
        self.points = points
        self.launches = launches

    def to_dict(self):
        return {
            "format": "curve",
            "workload": {"seed": 0},
            "points": self.points,
            "launches": self.launches,
        }


def curve_point(n, k, ms=1.0, recall=0.99, **extra):
    return {"n": n, "k": k, "ms": ms, "recall": recall, **extra}


class TestCheckBaseline:
    def test_matching_baseline_is_clean(self):
        report = CurveReport([curve_point(8, 1), curve_point(8, 2)])
        assert check_baseline(report, report.to_dict()) == []

    def test_points_match_on_their_key_not_their_position(self):
        report = CurveReport([curve_point(8, 1), curve_point(8, 2, ms=3.0)])
        baseline = CurveReport(
            [curve_point(8, 2, ms=3.0), curve_point(8, 1)]
        ).to_dict()
        assert check_baseline(report, baseline) == []

    def test_missing_point_is_one_problem_across_its_gates(self):
        report = CurveReport([curve_point(8, 1)])
        baseline = CurveReport([curve_point(8, 1), curve_point(8, 2)])
        assert check_baseline(report, baseline.to_dict()) == [
            "report is missing baseline points[n=8,k=2]"
        ]

    def test_a_path_the_baseline_lacks_is_a_problem(self):
        report = CurveReport([curve_point(8, 1)])
        baseline = report.to_dict()
        del baseline["launches"]
        assert check_baseline(report, baseline) == ["baseline lacks launches"]

    def test_optional_number_is_skipped_when_either_side_lacks_it(self):
        report = CurveReport([curve_point(8, 1, extra={"p99": 1.0})])
        bare = CurveReport([curve_point(8, 1)])
        assert check_baseline(report, bare.to_dict()) == []
        assert check_baseline(bare, report.to_dict()) == []
        drifted_p99 = CurveReport([curve_point(8, 1, extra={"p99": 9.0})])
        assert check_baseline(report, drifted_p99.to_dict()) == [
            "points[n=8,k=1].extra.p99 1 deviates more than 15% from "
            "baseline 9"
        ]

    def test_floor_allows_its_margin_only(self):
        report = CurveReport([curve_point(8, 1, recall=0.985)])
        assert check_baseline(
            report, CurveReport([curve_point(8, 1, recall=0.99)]).to_dict()
        ) == []
        assert check_baseline(
            report, CurveReport([curve_point(8, 1, recall=1.0)]).to_dict()
        ) == ["points[n=8,k=1].recall 0.985 fell more than 0.01 below "
              "baseline 1"]

    def test_ceiling_may_fall_but_not_rise_or_vanish(self):
        points = [curve_point(8, 1)]
        baseline = CurveReport(points, launches=2).to_dict()
        assert check_baseline(CurveReport(points, launches=1), baseline) == []
        assert check_baseline(CurveReport(points, launches=3), baseline) == [
            "launches 3 exceeds baseline 2"
        ]
        assert check_baseline(CurveReport(points, launches=0), baseline) == [
            "launches fell to 0 from baseline 2"
        ]

    def test_nan_fails_every_rule(self):
        points = [curve_point(8, 1, ms=math.nan, recall=math.nan)]
        report = CurveReport(points, launches=math.nan)
        baseline = CurveReport([curve_point(8, 1)]).to_dict()
        problems = check_baseline(report, baseline)
        assert [problem.split()[0] for problem in problems] == [
            "points[n=8,k=1].ms",
            "points[n=8,k=1].recall",
            "launches",
        ]
