"""The shared bench-CLI plumbing every benchmark front door rides on."""

import argparse
import json

from repro.bench.common import (
    BASELINE_TOLERANCE,
    add_report_arguments,
    apply_baseline,
    apply_gates,
    drifted,
    finish_report,
    write_report,
)


class FakeReport:
    def __init__(self, value=1.0, gates=()):
        self.value = value
        self._gates = list(gates)

    def gates(self):
        return self._gates

    def to_dict(self):
        return {"value": self.value}

    def render(self):
        return f"value: {self.value}"


def fake_check(report, baseline):
    if drifted(report.value, baseline["value"]):
        return [f"value {report.value} drifted from {baseline['value']}"]
    return []


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
        assert payload == {"value": 2.0}
        assert json.loads(capsys.readouterr().out) == {"value": 2.0}

    def test_out_writes_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        write_report(FakeReport(), parse(["--out", str(artifact)]))
        capsys.readouterr()
        assert json.loads(artifact.read_text()) == {"value": 1.0}


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
        assert apply_baseline(FakeReport(), None, fake_check) == 0

    def test_baseline_within_tolerance_passes(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"value": 1.05}))
        assert apply_baseline(FakeReport(1.0), str(path), fake_check) == 0

    def test_baseline_drift_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"value": 2.0}))
        assert apply_baseline(FakeReport(1.0), str(path), fake_check) == 1
        assert "baseline regression:" in capsys.readouterr().err


class TestFinishReport:
    def test_full_tail(self, tmp_path, capsys):
        artifact = tmp_path / "out.json"
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"value": 1.0}))
        status = finish_report(
            FakeReport(1.0, gates=[(True, "gate holds")]),
            parse(["--out", str(artifact), "--baseline", str(baseline)]),
            check_baseline=fake_check,
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
        baseline.write_text(json.dumps({"value": 9.0}))
        status = finish_report(
            FakeReport(1.0, gates=[(True, "fine")]),
            parse(["--baseline", str(baseline)]),
            check_baseline=fake_check,
        )
        assert status == 1
        capsys.readouterr()
