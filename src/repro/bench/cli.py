"""Command-line figure runner.

Regenerate any figure of the evaluation without pytest::

    python -m repro.bench fig11a
    python -m repro.bench abl43 fig17
    python -m repro.bench --list
    python -m repro.bench --all

CI smoke mode reruns a fast subset, writes the results as a run record,
and gates on the committed baseline (simulated-ms increases beyond the
tolerance fail the build; getting faster never does)::

    python -m repro.bench --ci --out BENCH_ci.json \\
        --baseline benchmarks/baselines/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.common import BASELINE_TOLERANCE
from repro.bench.figures import REGISTRY
from repro.bench.history import compare_run, load_run, save_run
from repro.bench.report import format_figure
from repro.errors import ReproError, exit_code

#: The fast subset rerun on every CI push (well under a second combined;
#: the big sweep figures take seconds to minutes each).
CI_FIGURES = ("fig08", "abl43", "q4")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate figures of the SIGMOD 2018 top-k evaluation.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help="figure ids to run (e.g. fig11a abl43 q4)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available figure ids and exit"
    )
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument(
        "--ci", action="store_true",
        help="run the fast CI subset and gate on a baseline",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the run's figures as a JSON run record",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline run record to compare against (with --ci: gate)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=BASELINE_TOLERANCE,
        help="relative simulated-ms increase tolerated before failing",
    )
    return parser


def _command_ci(arguments) -> int:
    figures = {figure_id: REGISTRY[figure_id]() for figure_id in CI_FIGURES}
    for figure in figures.values():
        print(format_figure(figure))
        print()
    if arguments.out:
        save_run(figures, arguments.out)
        print(f"wrote {arguments.out}")
    if not arguments.baseline:
        return 0
    baseline = load_run(arguments.baseline)
    regressions = compare_run(
        baseline, figures, tolerance=arguments.tolerance, slower_only=True
    )
    if regressions:
        print(
            f"\n{len(regressions)} simulated-ms regression(s) beyond "
            f"{arguments.tolerance:.0%} vs {arguments.baseline}:",
            file=sys.stderr,
        )
        for figure_id, regression in regressions:
            print(f"  {figure_id}: {regression}", file=sys.stderr)
        return 1
    print(f"no regressions beyond {arguments.tolerance:.0%} "
          f"vs {arguments.baseline}")
    return 0


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return _run(arguments)
    except ReproError as error:
        # The typed-error contract of ``python -m repro``.
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code(error)


def _run(arguments) -> int:
    if arguments.list:
        for figure_id in REGISTRY:
            print(figure_id)
        return 0
    if arguments.ci:
        return _command_ci(arguments)
    requested = list(REGISTRY) if arguments.all else arguments.figures
    if not requested:
        build_parser().print_help()
        return 2
    unknown = [figure_id for figure_id in requested if figure_id not in REGISTRY]
    if unknown:
        print(
            f"unknown figure(s): {', '.join(unknown)}; "
            f"available: {', '.join(REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    figures = {}
    for figure_id in requested:
        figures[figure_id] = REGISTRY[figure_id]()
        print(format_figure(figures[figure_id]))
        print()
    if arguments.out:
        save_run(figures, arguments.out)
        print(f"wrote {arguments.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
