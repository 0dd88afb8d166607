"""Shared bench-CLI plumbing: report output, gates, and baseline checks.

Every benchmark front door (``serve-bench``, ``approx-bench``,
``shard-bench``, ``slo-bench``, ``radix-bench``, ``stream-bench``,
``calibrate``) follows one contract:

* ``--json`` / ``--out`` — print the report as JSON (or its rendered
  text) and optionally write the JSON artifact to a path CI uploads;
* property gates — each failed gate prints one ``error: ...`` line on
  stderr and the command exits non-zero;
* ``--baseline`` — compare headline numbers against a committed
  ``BENCH_*.json`` within the shared relative tolerance
  (:data:`BASELINE_TOLERANCE`), printing one ``baseline regression:``
  line per drifted number.

This module is that contract, written once: argument wiring
(:func:`add_report_arguments`), artifact/print plumbing
(:func:`write_report`), gate evaluation (:func:`apply_gates`), the
tolerance predicate every ``check_baseline`` uses (:func:`drifted`), and
the end-to-end tail a bench command returns (:func:`finish_report`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable

#: Relative tolerance of every BENCH_*.json baseline gate: a measured
#: number may drift this fraction from the committed expectation before
#: the gate trips (loose enough for runner jitter, tight enough to catch
#: real cost-model or scheduling regressions).
BASELINE_TOLERANCE = 0.15


def drifted(
    measured: float,
    expected: float,
    tolerance: float = BASELINE_TOLERANCE,
) -> bool:
    """True when ``measured`` falls outside the relative tolerance band.

    The band is relative to ``|expected|`` with a tiny absolute floor so a
    zero expectation doesn't demand exact equality of floats.
    """
    return abs(measured - expected) > tolerance * max(abs(expected), 1e-9)


def add_report_arguments(
    parser: argparse.ArgumentParser, baseline_name: str | None = None
) -> None:
    """Wire the shared ``--json`` / ``--out`` / ``--baseline`` flags."""
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of the text summary",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the JSON report to this path",
    )
    if baseline_name is not None:
        parser.add_argument(
            "--baseline", default=None,
            help=f"gate the run against a committed {baseline_name} baseline",
        )


def write_report(report, arguments) -> dict:
    """Write the ``--out`` artifact and print the report; returns payload."""
    payload = report.to_dict()
    out = getattr(arguments, "out", None)
    if out:
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if getattr(arguments, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
    return payload


def apply_gates(gates: Iterable[tuple[bool, str]]) -> int:
    """Evaluate (passed, message) gates; each failure is one stderr line."""
    status = 0
    for passed, message in gates:
        if not passed:
            print(f"error: {message}", file=sys.stderr)
            status = 1
    return status


def apply_baseline(
    report, baseline_path: str | None, check: Callable[[object, dict], list]
) -> int:
    """Load a committed baseline and report every drifted number."""
    if not baseline_path:
        return 0
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    problems = check(report, baseline)
    for problem in problems:
        print(f"baseline regression: {problem}", file=sys.stderr)
    return 1 if problems else 0


def finish_report(
    report,
    arguments,
    gates: Iterable[tuple[bool, str]] = (),
    check_baseline: Callable[[object, dict], list] | None = None,
) -> int:
    """The whole bench-command tail: artifact, print, gates, baseline."""
    write_report(report, arguments)
    status = apply_gates(gates)
    if check_baseline is not None:
        status = max(
            status,
            apply_baseline(
                report, getattr(arguments, "baseline", None), check_baseline
            ),
        )
    return status
