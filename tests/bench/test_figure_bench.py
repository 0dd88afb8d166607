"""The figure benchmark: its workload, its report and its baseline rows."""

import math

import pytest

from repro.bench import check_baseline
from repro.bench import figures as figures_module
from repro.bench.figure_bench import (
    REPORT_FORMAT,
    FigureBenchReport,
    FigureWorkload,
    run_figure_bench,
)
from repro.bench.figures import REGISTRY
from repro.bench.report import Figure, format_figure
from repro.errors import InvalidParameterError
from repro.gpu.device import get_device


@pytest.fixture(scope="module")
def ablation():
    return run_figure_bench(FigureWorkload(("abl43",)))


def _report(values):
    figure = Figure("fig-test", "demo", "k", "ms")
    series = figure.add_series("bitonic")
    for x, y in values.items():
        series.add(x, y)
    workload = FigureWorkload(("abl43",))
    return FigureBenchReport(workload, [figure], "titan-x-maxwell")


class TestFigureWorkload:
    def test_default_is_the_ci_subset(self):
        assert FigureWorkload().figures == ("fig08", "abl43", "q4")

    def test_all_is_every_registered_figure(self):
        assert FigureWorkload(("all",)).figures == tuple(REGISTRY)

    def test_repeated_ids_run_once_in_order(self):
        workload = FigureWorkload(("q4", "abl43", "q4"))
        assert workload.figures == ("q4", "abl43")
        assert workload.to_dict() == {"figures": ["q4", "abl43"]}

    @pytest.mark.parametrize("figures", [("fig99",), ()], ids=["unknown", "empty"])
    def test_rejected(self, figures):
        with pytest.raises(InvalidParameterError, match="available"):
            FigureWorkload(figures)


class TestFigureBenchReport:
    def test_one_point_per_plotted_number(self, ablation):
        (figure,) = ablation.figures
        expected = sum(len(series.points) for series in figure.series)
        points = ablation.points()
        assert len(points) == expected
        assert {point["series"] for point in points} == {"model", "paper"}
        assert all(isinstance(point["x"], str) for point in points)

    def test_to_dict(self, ablation):
        document = ablation.to_dict()
        assert document["format"] == REPORT_FORMAT
        assert document["workload"] == {"figures": ["abl43"]}
        assert document["points"] == ablation.points()

    def test_render_is_each_figure_formatted(self, ablation):
        text = ablation.render()
        assert text == format_figure(ablation.figures[0])
        assert "Optimization ablation ladder" in text and "paper" in text

    def test_gates_pass_on_real_figures(self, ablation):
        assert all(passed for passed, _ in ablation.gates())

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_gates_name_a_non_finite_point(self, value):
        ((passed, message),) = _report({32: 1.0, 64: value}).gates()
        assert not passed
        assert "fig-test bitonic[64]" in message
        assert "[32]" not in message


class TestFigureBaseline:
    def test_report_points_the_baseline_lacks_are_ignored(self):
        baseline = _report({32: 100.0}).to_dict()
        assert check_baseline(_report({32: 100.0, 64: 1.0}), baseline) == []

    def test_baseline_point_the_report_lacks_is_a_problem(self):
        baseline = _report({32: 100.0, 64: 1.0}).to_dict()
        (problem,) = check_baseline(_report({32: 100.0}), baseline)
        assert "missing" in problem and "x=64" in problem


class TestDevice:
    def test_runner_forwards_the_device(self):
        workload = FigureWorkload(("fig08",))
        titan = run_figure_bench(workload).points()
        v100 = run_figure_bench(workload, get_device("v100")).points()
        assert [p["x"] for p in titan] == [p["x"] for p in v100]
        assert all(a["value"] > b["value"] for a, b in zip(titan, v100))

    @pytest.mark.parametrize("figure_id", ["fig15a", "fig15b"])
    def test_fig15_forwards_the_device(self, figure_id, monkeypatch):
        seen = []
        monkeypatch.setattr(
            figures_module, "figure_15", lambda **kwargs: seen.append(kwargs)
        )
        device = get_device("v100")
        REGISTRY[figure_id](device=device)
        assert seen == [
            {"sorted_input": figure_id == "fig15b", "device": device}
        ]
