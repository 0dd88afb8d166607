"""Benchmark harness: figure experiments, the bench registry, reporting.

Every bench is one :data:`~repro.bench.common.BENCHES` entry run as
``python -m repro <name>``; the paper's figures are ``python -m repro
figure-bench --figure fig11a`` (``--figure all`` runs every one).
"""

from repro.bench.common import (
    BASELINE_TOLERANCE,
    add_report_arguments,
    apply_baseline,
    apply_gates,
    check_baseline,
    drifted,
    finish_report,
    write_report,
)
from repro.bench.figures import (
    DEFAULT_FUNCTIONAL_N,
    K_SWEEP,
    PAPER_N,
    REGISTRY,
    run_figure,
)
from repro.bench.report import Figure, Series, format_comparison, format_figure

__all__ = [
    "BASELINE_TOLERANCE",
    "add_report_arguments",
    "apply_baseline",
    "apply_gates",
    "check_baseline",
    "drifted",
    "finish_report",
    "write_report",
    "DEFAULT_FUNCTIONAL_N",
    "K_SWEEP",
    "PAPER_N",
    "REGISTRY",
    "run_figure",
    "Figure",
    "Series",
    "format_comparison",
    "format_figure",
]
