"""The bench registry: one command path, its CI matrix entries, its
baselines, and its exit-code contract."""

import copy
import importlib
import json
import math
import typing
from pathlib import Path

import pytest

from repro.bench import check_baseline
from repro.bench.common import BASELINE_TOLERANCE, BENCHES
from repro.cli import main
from repro.errors import EXIT_CODES, InvalidParameterError

ROOT = Path(__file__).resolve().parents[2]

#: Small workloads that keep each bench under a few seconds.
FAST = {
    "figure-bench": ["--figure", "abl43"],
    "serve-bench": ["--queries", "24", "--shapes", "2", "--n", "128",
                    "--k", "4"],
    "approx-bench": ["--n", "65536", "--k", "32", "--buckets", "0",
                     "--buckets", "8", "--functional-cap", "16384"],
    "shard-bench": ["--n", str(1 << 23), "--k", "64",
                    "--functional-cap", str(1 << 16)],
    "slo-bench": ["--queries", "60", "--rate", "8", "--rate", "60"],
    "radix-bench": ["--n", str(1 << 26), "--k", "64", "--k", "1024",
                    "--functional-cap", str(1 << 16), "--batch", "1",
                    "--batch", "2", "--batch-n", "1024", "--batch-k", "32"],
    "stream-bench": ["--k", "8", "--chunk-rows", "256",
                     "--model-chunk-rows", str(1 << 20),
                     "--window-chunks", "8", "--ticks", "12"],
    "calibrate": ["--n", "4096", "--n", "16384", "--k", "16", "--k", "64",
                  "--seed", "7"],
}

WITH_BASELINE = [bench for bench in BENCHES if bench.baseline]


def _ids(bench):
    return bench.name


def smoke_commands() -> list[str]:
    """Each entry of CI's ``smoke`` matrix, whitespace-folded (plain text:
    PyYAML is not a CI dependency)."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    smoke = workflow.split("\n  smoke:\n", 1)[1]
    return [" ".join(entry.split()) for entry in smoke.split("- check:")[1:]]


def _errors(stderr: str, prefix: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.startswith(prefix)]


class TestRegistry:
    def test_every_bench_has_a_fast_workload(self):
        assert sorted(FAST) == sorted(bench.name for bench in BENCHES)

    @pytest.mark.parametrize("bench", BENCHES, ids=_ids)
    def test_ci_matrix_runs_the_bench(self, bench):
        command = f"python -m repro {bench.name} "
        gate = f"--baseline {bench.baseline}" if bench.baseline else ""
        assert any(
            command in entry and gate in entry for entry in smoke_commands()
        ), f"no smoke matrix entry runs {command.strip()} {gate}"

    @pytest.mark.parametrize("bench", WITH_BASELINE, ids=_ids)
    def test_baseline_is_a_report_of_the_bench(self, bench):
        module = importlib.import_module(bench.module)
        baseline = json.loads((ROOT / bench.baseline).read_text())
        assert baseline["format"] == module.REPORT_FORMAT


def report_class(bench):
    """The report class a bench's runner returns."""
    module = importlib.import_module(bench.module)
    return typing.get_type_hints(getattr(module, bench.runner))["return"]


class Committed:
    """A report whose ``to_dict()`` is a given document."""

    def __init__(self, bench, document):
        self.BASELINE_GATES = report_class(bench).BASELINE_GATES
        self.document = document

    def to_dict(self):
        return self.document


def gated_numbers(document, gate):
    """``(label, container, key)`` of every number ``gate.path`` names in
    ``document``, resolved independently of the checker; an unresolved
    step raises ``KeyError`` unless the gate is optional."""
    found = [("", document)]
    *parents, leaf = gate.path.split(".")
    for part in parents:
        name, _, fields = part.rstrip("]").partition("[")
        found = [
            (f"{label}.{name}" if label else name, node[name])
            for label, node in found
            if not gate.optional or name in node
        ]
        if fields:
            keys = fields.split(",")
            found = [
                (f"{label}[{','.join(f'{k}={point[k]}' for k in keys)}]", point)
                for label, points in found
                for point in points
            ]
    return [
        (f"{label}.{leaf}" if label else leaf, node, leaf)
        for label, node in found
        if not gate.optional or leaf in node
    ]


def past_rule(gate, value):
    """``value`` moved just past what ``gate``'s rule allows."""
    if gate.rule == "floor":
        return value - 2 * gate.margin
    if gate.rule == "ceiling":
        return value + 1
    return value * (1 + 2 * BASELINE_TOLERANCE) if value else 1.0


def to_nan(gate, value):
    return math.nan


#: (which document is moved, how): past the rule in the report, and NaN
#: on either side.
MOVES = [("report", past_rule), ("report", to_nan), ("baseline", to_nan)]


class TestBaselineGates:
    """Every gate of every bench against its committed baseline; no bench
    runs."""

    @pytest.mark.parametrize("bench", WITH_BASELINE, ids=_ids)
    def test_every_gate_resolves_in_the_committed_baseline(self, bench):
        baseline = json.loads((ROOT / bench.baseline).read_text())
        for gate in report_class(bench).BASELINE_GATES:
            numbers = gated_numbers(baseline, gate)
            assert numbers, f"{gate.path} names no number in {bench.baseline}"
            for label, node, key in numbers:
                assert isinstance(node[key], (int, float)), label

    @pytest.mark.parametrize("bench", WITH_BASELINE, ids=_ids)
    def test_committed_baseline_passes_against_itself(self, bench):
        baseline = json.loads((ROOT / bench.baseline).read_text())
        assert check_baseline(Committed(bench, baseline), baseline) == []

    @pytest.mark.parametrize("bench", WITH_BASELINE, ids=_ids)
    @pytest.mark.parametrize(
        "side, move", MOVES, ids=["past-rule", "nan-report", "nan-baseline"]
    )
    def test_each_moved_number_is_one_problem(self, bench, side, move):
        baseline = json.loads((ROOT / bench.baseline).read_text())
        for gate in report_class(bench).BASELINE_GATES:
            for position in range(len(gated_numbers(baseline, gate))):
                documents = {
                    "report": copy.deepcopy(baseline),
                    "baseline": copy.deepcopy(baseline),
                }
                label, node, key = gated_numbers(documents[side], gate)[position]
                node[key] = move(gate, node[key])
                problems = check_baseline(
                    Committed(bench, documents["report"]), documents["baseline"]
                )
                assert len(problems) == 1, (label, problems)
                assert problems[0].startswith(f"{label} "), problems


    @pytest.mark.parametrize("bench", WITH_BASELINE, ids=_ids)
    @pytest.mark.parametrize("device", [None, "v100"], ids=["missing", "other"])
    def test_another_device_is_one_incomparable_problem(self, bench, device):
        baseline = json.loads((ROOT / bench.baseline).read_text())
        moved = copy.deepcopy(baseline)
        if device is None:
            del moved["device"]
        else:
            moved["device"] = device
        for report, against in ((baseline, moved), (moved, baseline)):
            problems = check_baseline(Committed(bench, report), against)
            assert len(problems) == 1, problems
            assert problems[0].startswith("baseline device differs"), problems


class TestBenchExits:
    @pytest.mark.parametrize("bench", BENCHES, ids=_ids)
    def test_failed_gates_exit_one(self, bench, monkeypatch, capsys):
        module = importlib.import_module(bench.module)
        run = getattr(module, bench.runner)
        failed = []

        def failing_run(*args, **kwargs):
            report = run(*args, **kwargs)
            failed.extend((False, message) for _, message in report.gates())
            report.gates = lambda: failed
            return report

        monkeypatch.setattr(module, bench.runner, failing_run)
        assert main([bench.name, *FAST[bench.name], "--json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["format"] == module.REPORT_FORMAT
        assert len(_errors(captured.err, "error: ")) == len(failed) >= 1

    @pytest.mark.parametrize("bench", WITH_BASELINE, ids=_ids)
    def test_drifted_baseline_exits_one(self, bench, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        argv = [bench.name, *FAST[bench.name]]
        assert main([*argv, "--out", str(baseline)]) == 0

        def drift(node):
            if isinstance(node, dict):
                return {
                    key: value if key == "workload" else drift(value)
                    for key, value in node.items()
                }
            if isinstance(node, list):
                return [drift(value) for value in node]
            return node * 10 if isinstance(node, float) else node

        baseline.write_text(json.dumps(drift(json.loads(baseline.read_text()))))
        capsys.readouterr()
        assert main([*argv, "--baseline", str(baseline)]) == 1
        assert _errors(capsys.readouterr().err, "baseline regression: ")


class TestTypedFileErrors:
    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--baseline", ["shard-bench", *FAST["shard-bench"]]),
            ("--load", ["calibrate", *FAST["calibrate"]]),
        ],
        ids=["shard-bench-baseline", "calibrate-load"],
    )
    @pytest.mark.parametrize(
        "content", [None, "not json {"], ids=["missing", "not-json"]
    )
    def test_missing_or_malformed_file_exits_three(
        self, flag, argv, content, tmp_path, capsys
    ):
        path = tmp_path / "file.json"
        if content is not None:
            path.write_text(content)
        assert main([*argv, flag, str(path)]) == EXIT_CODES[InvalidParameterError]
        err = capsys.readouterr().err
        assert _errors(err, "error: InvalidParameterError: cannot load")
        assert "Traceback" not in err
