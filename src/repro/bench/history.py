"""Benchmark result history: save figure series, compare across runs.

Long-lived reproductions need regression tracking on the *simulated*
numbers, not just pytest-benchmark's wall-clock: a change to the bank
model or a kernel plan should surface as a delta on the affected figures.
``save_figure`` serializes a figure's series to JSON; ``compare`` diffs two
recordings and flags series points whose relative change exceeds a
tolerance.

The run-level variants (``save_run`` / ``load_run`` / ``compare_run``)
bundle several figures into one JSON document — the shape
``python -m repro.bench --ci`` (an entry of CI's ``smoke`` matrix)
commits as its baseline and gates against, with ``slower_only=True`` so
improvements never fail the build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.common import BASELINE_TOLERANCE, drifted, load_json
from repro.bench.report import Figure
from repro.errors import InvalidParameterError


def figure_to_record(figure: Figure) -> dict:
    """JSON-serializable representation of a figure."""
    return {
        "figure_id": figure.figure_id,
        "title": figure.title,
        "x_label": figure.x_label,
        "y_label": figure.y_label,
        "series": {
            series.name: {str(x): y for x, y in series.points.items()}
            for series in figure.series
        },
    }


def record_to_figure(record: dict) -> Figure:
    """Rebuild a figure from its JSON record (x values become strings)."""
    figure = Figure(
        record["figure_id"],
        record["title"],
        record["x_label"],
        record["y_label"],
    )
    for name, points in record["series"].items():
        series = figure.add_series(name)
        for x, y in points.items():
            series.add(x, y)
    return figure


def save_figure(figure: Figure, path: str | Path) -> None:
    """Write a figure's series to a JSON file."""
    Path(path).write_text(json.dumps(figure_to_record(figure), indent=2))


def load_figure(path: str | Path) -> Figure:
    """Load a previously saved figure."""
    return record_to_figure(load_json(path, "figure"))


@dataclass(frozen=True)
class Regression:
    """One point whose value moved more than the tolerance."""

    series: str
    x: str
    before: float
    after: float

    @property
    def ratio(self) -> float:
        if self.before == 0:
            return float("inf")
        return self.after / self.before

    def __str__(self) -> str:
        return (
            f"{self.series}[{self.x}]: {self.before:.3f} -> {self.after:.3f} "
            f"(x{self.ratio:.2f})"
        )


def compare(
    baseline: Figure,
    current: Figure,
    tolerance: float = 0.05,
    slower_only: bool = False,
) -> list[Regression]:
    """Points whose relative change exceeds ``tolerance``.

    Missing series/points are ignored (new experiments are not
    regressions); only overlapping points are compared.  With
    ``slower_only`` a point only counts when it *increased* — the CI gate
    for lower-is-better simulated-ms figures, where getting faster is an
    improvement, not a regression.
    """
    if tolerance < 0:
        raise InvalidParameterError("tolerance must be non-negative")
    regressions: list[Regression] = []
    baseline_series = {series.name: series for series in baseline.series}
    for series in current.series:
        before_series = baseline_series.get(series.name)
        if before_series is None:
            continue
        before_points = {str(x): y for x, y in before_series.points.items()}
        for x, after in series.points.items():
            before = before_points.get(str(x))
            if before is None:
                continue
            if slower_only and after <= before:
                continue
            if drifted(after, before, tolerance):
                regressions.append(
                    Regression(series=series.name, x=str(x), before=before,
                               after=after)
                )
    return regressions


# -- Run-level history (several figures per document) --------------------

RUN_FORMAT = "repro-bench-run"


def run_to_record(figures: dict[str, Figure]) -> dict:
    """JSON-serializable representation of a whole benchmark run."""
    return {
        "format": RUN_FORMAT,
        "version": 1,
        "figures": {
            figure_id: figure_to_record(figure)
            for figure_id, figure in figures.items()
        },
    }


def record_to_run(record: dict) -> dict[str, Figure]:
    if record.get("format") != RUN_FORMAT:
        raise InvalidParameterError(
            f"not a benchmark run record (format={record.get('format')!r})"
        )
    return {
        figure_id: record_to_figure(figure_record)
        for figure_id, figure_record in record["figures"].items()
    }


def save_run(figures: dict[str, Figure], path: str | Path) -> None:
    """Write a multi-figure benchmark run to a JSON file."""
    Path(path).write_text(json.dumps(run_to_record(figures), indent=2) + "\n")


def load_run(path: str | Path) -> dict[str, Figure]:
    """Load a previously saved benchmark run."""
    return record_to_run(load_json(path, "run"))


def compare_run(
    baseline: dict[str, Figure],
    current: dict[str, Figure],
    tolerance: float = BASELINE_TOLERANCE,
    slower_only: bool = True,
) -> list[tuple[str, Regression]]:
    """Compare two runs; returns ``(figure_id, regression)`` pairs.

    Figures present in only one run are ignored, mirroring
    :func:`compare`'s treatment of series and points.
    """
    regressions: list[tuple[str, Regression]] = []
    for figure_id, current_figure in current.items():
        baseline_figure = baseline.get(figure_id)
        if baseline_figure is None:
            continue
        for regression in compare(
            baseline_figure, current_figure, tolerance, slower_only
        ):
            regressions.append((figure_id, regression))
    return regressions
