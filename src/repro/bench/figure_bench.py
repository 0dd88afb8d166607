"""The figure benchmark behind ``repro figure-bench``.

Regenerates figures of the paper's evaluation (Section 6) from
:data:`~repro.bench.figures.REGISTRY` on the modeled device and reports
every point: one ``(figure, series, x, value)`` row per plotted number.
The default workload is the fast subset CI gates (``fig08``, ``abl43``,
``q4``: well under a second combined; the sweep figures take seconds
each); ``--figure all`` runs every registered figure.

The points are simulated milliseconds (and the paper's own constants),
so CI holds each one to the committed
``benchmarks/baselines/BENCH_baseline.json`` through the one baseline
checker, :func:`repro.bench.common.check_baseline`, within the standard
drift band either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bench.common import Gate
from repro.bench.figures import REGISTRY
from repro.bench.report import Figure, format_figure
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device

#: JSON schema tag of a serialized report.
REPORT_FORMAT = "repro-figure-bench"


@dataclass
class FigureWorkload:
    """The figures one run regenerates; ``"all"`` is every registered id."""

    figures: tuple[str, ...] = ("fig08", "abl43", "q4")

    def __post_init__(self) -> None:
        figures = tuple(REGISTRY) if "all" in self.figures else self.figures
        if not figures or not set(figures) <= set(REGISTRY):
            raise InvalidParameterError(
                f"figures must be registered ids or 'all', got {figures!r}; "
                f"available: {', '.join(REGISTRY)}"
            )
        self.figures = tuple(dict.fromkeys(figures))

    def to_dict(self) -> dict:
        return {"figures": list(self.figures)}


@dataclass
class FigureBenchReport:
    """The regenerated figures, one point per (figure, series, x)."""

    workload: FigureWorkload
    figures: list[Figure]
    device: str

    #: What a committed baseline holds: every point of every figure.
    BASELINE_GATES = (Gate("points[figure,series,x].value"),)

    def points(self) -> list[dict]:
        return [
            {"figure": figure.figure_id, "series": series.name, "x": str(x), "value": y}
            for figure in self.figures
            for series in figure.series
            for x, y in series.points.items()
        ]

    def gates(self) -> list[tuple[bool, str]]:
        broken = [
            f"{point['figure']} {point['series']}[{point['x']}]"
            for point in self.points()
            if not math.isfinite(point["value"])
        ]
        return [(not broken, f"figure points are NaN or infinite: {broken}")]

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "workload": self.workload.to_dict(),
            "device": self.device,
            "points": self.points(),
        }

    def render(self) -> str:
        return "\n\n".join(format_figure(figure) for figure in self.figures)


def run_figure_bench(
    workload: FigureWorkload | None = None,
    device: DeviceSpec | None = None,
) -> FigureBenchReport:
    """Regenerate the workload's figures on ``device``."""
    workload = workload or FigureWorkload()
    figures = [REGISTRY[figure_id](device=device) for figure_id in workload.figures]
    return FigureBenchReport(workload, figures, (device or get_device()).name)
