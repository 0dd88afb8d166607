"""The bench registry and the one contract every bench command follows.

:data:`BENCHES` maps each benchmark front door (``figure-bench``,
``serve-bench``, ``approx-bench``, ``shard-bench``, ``slo-bench``,
``radix-bench``, ``stream-bench``, ``calibrate``) to its runner, the
workload its flags fill, its flags and its committed baseline.
``python -m repro`` builds one subcommand per entry and runs them all
through one command path; CI's ``smoke`` matrix has one entry per
bench, and a tier-1 test pins the two together. Every bench follows
one contract:

* ``--json`` / ``--out`` — print the report as JSON (or its rendered
  text) and optionally write the JSON artifact to a path CI uploads;
* gates — each report's ``gates()`` returns ``(ok, message)`` pairs, the
  one source of its ``passed`` verdict; each failed gate prints one
  ``error: ...`` line on stderr and the command exits 1;
* ``--baseline`` — compare the numbers the report class lists in
  ``BASELINE_GATES`` against a committed ``BENCH_*.json`` (itself a
  report's ``to_dict()``) with :func:`check_baseline`, printing one
  ``baseline regression:`` line per problem.

This module is that contract, written once: argument wiring
(:func:`add_bench_arguments`, :func:`add_report_arguments`),
artifact/print plumbing (:func:`write_report`), gate evaluation
(:func:`apply_gates`), the typed JSON loader for baselines and stores
(:func:`load_json`), the one baseline checker (:func:`check_baseline`,
its :class:`Gate` rows and the tolerance predicate :func:`drifted`), and
the end-to-end tail a bench command returns (:func:`finish_report`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.bench.figures import REGISTRY
from repro.costmodel.base import PROFILES
from repro.errors import InvalidParameterError
from repro.gpu.device import list_devices

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
    zero expectation doesn't demand exact equality of floats. A NaN or
    infinite value on either side has no band: it always counts as drift.
    """
    if not (math.isfinite(measured) and math.isfinite(expected)):
        return True
    return abs(measured - expected) > tolerance * max(abs(expected), 1e-9)


def incomparable(baseline: dict, document: dict) -> list[str]:
    """Why ``baseline`` cannot gate the run ``document``, if it cannot
    (else ``[]``).

    A baseline of another report format, workload or device has no
    numbers comparable with the run's; :func:`check_baseline` returns
    this problem alone before it compares any number.
    """
    if baseline.get("format") != document["format"]:
        return [f"baseline is not a {document['format']} document"]
    for key in ("workload", "device"):
        if baseline.get(key) != document.get(key):
            return [
                f"baseline {key} differs from the benchmarked {key}: "
                f"{baseline.get(key)} vs {document.get(key)}"
            ]
    return []


@dataclass(frozen=True)
class Gate:
    """One number a committed baseline holds in place.

    ``path`` names the number in the report's ``to_dict()``: dot-separated
    keys, where ``name[field,...]`` is a list of points matched between
    the report and the baseline on those fields
    (``points[shards].simulated_ms``). ``rule`` is one of

    * ``"drift"`` — within :data:`BASELINE_TOLERANCE` of the baseline,
      either way;
    * ``"floor"`` — may not fall more than ``margin`` (absolute) below
      the baseline;
    * ``"ceiling"`` — a count that may fall, but neither rise above the
      baseline nor fall to zero from a non-zero baseline.

    An ``optional`` number is skipped when either side lacks it; any
    other absence is a problem. A NaN fails every rule.
    """

    path: str
    rule: str = "drift"
    margin: float = 0.0
    optional: bool = False


def _drift(measured, expected, margin) -> str | None:
    if drifted(measured, expected):
        return (
            f"{measured:.6g} deviates more than {BASELINE_TOLERANCE:.0%} "
            f"from baseline {expected:.6g}"
        )
    return None


def _floor(measured, expected, margin) -> str | None:
    if not measured >= expected - margin:  # written so NaN fails
        return (
            f"{measured:.6g} fell more than {margin:g} below baseline "
            f"{expected:.6g}"
        )
    return None


def _ceiling(measured, expected, margin) -> str | None:
    if measured == 0 < expected:
        return f"fell to 0 from baseline {expected:g}"
    if not measured <= expected:  # written so NaN fails
        return f"{measured:g} exceeds baseline {expected:g}"
    return None


_RULES = {"drift": _drift, "floor": _floor, "ceiling": _ceiling}

#: What a side of the comparison holds where a gated path has no value.
_ABSENT = object()


def _get(node, name: str):
    value = node.get(name) if isinstance(node, dict) else None
    return _ABSENT if value is None else value


def _pairs(segments: list, measured, expected, label: str):
    """Yield ``(label, measured, expected)`` for each number the path
    ``segments`` names in the baseline; a side that lacks it holds
    :data:`_ABSENT` (a missing report point stops there)."""
    if not segments:
        yield label, measured, expected
        return
    (name, fields), rest = segments[0], segments[1:]
    label = f"{label}.{name}" if label else name
    here, there = _get(measured, name), _get(expected, name)
    if fields is None:
        yield from _pairs(rest, here, there, label)
        return
    if there is _ABSENT:
        yield label, here, there
        return
    points = {
        tuple(point.get(field) for field in fields): point
        for point in ([] if here is _ABSENT else here)
    }
    for point in there:
        key = tuple(point.get(field) for field in fields)
        tag = ",".join(f"{field}={value}" for field, value in zip(fields, key))
        if key in points:
            yield from _pairs(rest, points[key], point, f"{label}[{tag}]")
        else:
            yield f"{label}[{tag}]", _ABSENT, point


def _segments(path: str) -> list:
    """``"points[model_n,k].exact_ms"`` -> ``[("points", ("model_n",
    "k")), ("exact_ms", None)]``."""
    segments = []
    for part in path.split("."):
        name, _, fields = part.rstrip("]").partition("[")
        segments.append((name, tuple(fields.split(",")) if fields else None))
    return segments


def check_baseline(report, baseline: dict) -> list[str]:
    """Regression-gate a report against a committed baseline.

    Returns the problems (empty = pass). The baseline is a report's
    ``to_dict()``; every number the report class lists in
    ``BASELINE_GATES`` is read out of both documents and held to its
    :class:`Gate` rule. Only deterministic numbers are gated, never wall
    clock. A baseline of another format, workload or device is one
    problem alone; a baseline point the report lacks is one problem, whichever
    gates read it. Exactness and the pass verdicts are not re-checked
    here: ``report.gates()`` fails the command on them.
    """
    document = report.to_dict()
    problems = incomparable(baseline, document)
    if problems:
        return problems
    for gate in report.BASELINE_GATES:
        for label, measured, expected in _pairs(
            _segments(gate.path), document, baseline, ""
        ):
            if measured is _ABSENT or expected is _ABSENT:
                if not gate.optional:
                    problems.append(
                        f"report is missing baseline {label}"
                        if measured is _ABSENT
                        else f"baseline lacks {label}"
                    )
                continue
            problem = _RULES[gate.rule](measured, expected, gate.margin)
            if problem is not None:
                problems.append(f"{label} {problem}")
    return list(dict.fromkeys(problems))


def load_json(path: str | Path, what: str):
    """Parse a JSON file named on the command line; a missing or
    malformed file is an :class:`InvalidParameterError` (exit 3), not a
    failed gate."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise InvalidParameterError(
            f"cannot load {what} from {path}: {error}"
        ) from error


# -- The registry -----------------------------------------------------------


def flag(*names: str, **options) -> tuple:
    """One ``add_argument`` call, as data."""
    return names, options


#: The simulated device every bench runs on.
DEVICE = flag("--device", default="titan-x-maxwell", choices=list_devices())
#: Marks where the shared ``--json`` / ``--out`` / ``--baseline`` flags go.
REPORT = flag()


@dataclass(frozen=True)
class Bench:
    """One benchmark front door, ``python -m repro <name>``.

    ``module`` is imported only when the command runs. It holds the
    ``runner``, the ``workload`` dataclass whose fields the flags of the
    same name override (``None``: the runner takes the flags as
    keywords) and ``REPORT_FORMAT``. The runner's report carries its own
    gates and, when the bench has a committed ``baseline``, the
    ``BASELINE_GATES`` :func:`check_baseline` holds to it. ``flags``
    lists the ``add_argument`` calls in ``--help`` order.
    """

    name: str
    help: str
    module: str
    runner: str
    workload: str | None
    baseline: str | None
    flags: tuple

    @property
    def settings(self) -> tuple[str, ...]:
        """Attribute names of the bench's own flags (argparse's dest rule)."""
        return tuple(
            spec[1].get("dest", spec[0][0].lstrip("-").replace("-", "_"))
            for spec in self.flags
            if spec is not DEVICE and spec is not REPORT
        )


_SEED = flag("--seed", type=int, default=None)
_FUNCTIONAL_CAP = flag(
    "--functional-cap", type=int, default=None,
    help="functional array size cap (the trace still models --n)",
)

BENCHES = (
    Bench(
        "figure-bench",
        help="regenerate figures of the paper's evaluation (Section 6) as "
             "simulated ms on the modeled device",
        module="repro.bench.figure_bench",
        runner="run_figure_bench",
        workload="FigureWorkload",
        baseline="benchmarks/baselines/BENCH_baseline.json",
        flags=(
            flag("--figure", action="append", dest="figures", default=None,
                 choices=[*REGISTRY, "all"],
                 help="figure id to run; repeatable; all runs every figure "
                      "(default: fig08 abl43 q4)"),
            DEVICE,
            REPORT,
        ),
    ),
    Bench(
        "serve-bench",
        help="replay a synthetic workload through the serving layer and "
             "compare against sequential execution",
        module="repro.serving.bench",
        runner="run_serving_benchmark",
        workload="Workload",
        baseline="benchmarks/baselines/BENCH_serving.json",
        flags=(
            flag("--queries", type=int, default=1000),
            flag("--shapes", type=int, default=4,
                 help="number of distinct (n, k) shapes in the stream"),
            flag("--n", type=int, default=512, help="row length"),
            flag("--k", type=int, default=8,
                 help="base k (shape i uses k + i)"),
            flag("--seed", type=int, default=0),
            DEVICE,
            flag("--max-batch", type=int, default=128,
                 help="largest number of queries fused into one launch"),
            flag("--no-cache", action="store_true",
                 help="disable the plan cache (replan every query)"),
            flag("--no-batch", action="store_true",
                 help="disable cross-query batching (serve per query)"),
            REPORT,
        ),
    ),
    Bench(
        "approx-bench",
        help="sweep the bucketed approximate top-k against the exact "
             "bitonic plan: simulated speedup vs. measured recall",
        module="repro.approx.bench",
        runner="run_approx_benchmark",
        workload="ApproxWorkload",
        baseline="benchmarks/baselines/BENCH_approx.json",
        flags=(
            flag("--n", type=int, action="append", dest="ns", default=None,
                 help="modeled input size; repeatable (default: 2^20 and "
                      "2^24)"),
            flag("--k", type=int, action="append", dest="ks", default=None,
                 help="result size; repeatable (default: 64 and 256)"),
            flag("--buckets", type=int, action="append", default=None,
                 help="bucket count; repeatable; 0 means the planner "
                      "default (default: 0, 16, 64)"),
            flag("--functional-cap", type=int, default=1 << 18,
                 help="functional array size cap (the trace still models "
                      "--n)"),
            flag("--seed", type=int, default=0),
            DEVICE,
            REPORT,
        ),
    ),
    Bench(
        "shard-bench",
        help="scale one large top-k across simulated devices and check the "
             "partition-parallel scaling curve (exactness + monotonicity)",
        module="repro.sharding.bench",
        runner="run_sharding_benchmark",
        workload="ShardWorkload",
        baseline="benchmarks/baselines/BENCH_sharding.json",
        flags=(
            flag("--n", type=int, default=None, dest="model_n",
                 help="modeled input size (default: 2^26)"),
            flag("--k", type=int, default=None, help="result size"),
            flag("--shards", type=int, action="append", dest="shard_counts",
                 default=None,
                 help="shard count to measure; repeatable, strictly "
                      "increasing (default: 1 2 4 8)"),
            _FUNCTIONAL_CAP,
            _SEED,
            DEVICE,
            REPORT,
        ),
    ),
    Bench(
        "slo-bench",
        help="sweep offered load past saturation and compare the SLO "
             "scheduler (EDF + degradation ladder) against the FIFO baseline",
        module="repro.slo.bench",
        runner="run_slo_benchmark",
        workload=None,
        baseline="benchmarks/baselines/BENCH_slo.json",
        flags=(
            flag("--queries", type=int, default=120),
            flag("--rate", type=float, action="append", dest="rates",
                 default=None,
                 help="offered load in queries per simulated ms; "
                      "repeatable (default: 8 16 28 40 60)"),
            flag("--process", default="poisson",
                 choices=["poisson", "bursty"],
                 help="open-loop arrival process"),
            flag("--seed", type=int, default=0),
            DEVICE,
            REPORT,
        ),
    ),
    Bench(
        "radix-bench",
        help="sweep the RadiK-style radix kernel against the strawman and "
             "bitonic across (k, batch): large-k crossover + fused batching",
        module="repro.bench.radix",
        runner="run_radix_benchmark",
        workload="RadixWorkload",
        baseline="benchmarks/baselines/BENCH_radix.json",
        flags=(
            flag("--n", type=int, default=None, dest="model_n",
                 help="modeled input size of the k sweep (default: 2^26)"),
            flag("--k", type=int, action="append", dest="ks", default=None,
                 help="result size; repeatable, strictly increasing "
                      "(default: 64 256 1024 2048)"),
            flag("--batch", type=int, action="append", dest="batch_sizes",
                 default=None,
                 help="batch size of the fused sweep; repeatable, strictly "
                      "increasing (default: 1 2 4 8)"),
            flag("--batch-n", type=int, default=None,
                 help="row length of the batch sweep (default: 2048)"),
            flag("--batch-k", type=int, default=None,
                 help="result size of the batch sweep (default: 64)"),
            _FUNCTIONAL_CAP,
            _SEED,
            DEVICE,
            REPORT,
        ),
    ),
    Bench(
        "stream-bench",
        help="drive the seeded tweet stream through incremental and "
             "recompute maintenance: per-tick bit-equality + the "
             "incremental speedup gate",
        module="repro.streaming.bench",
        runner="run_streaming_benchmark",
        workload="StreamWorkload",
        baseline="benchmarks/baselines/BENCH_streaming.json",
        flags=(
            flag("--k", type=int, default=None, help="result size"),
            flag("--chunk-rows", type=int, default=None,
                 help="functional rows per tick (the equality oracle's "
                      "chunk size)"),
            flag("--model-chunk-rows", type=int, default=None,
                 help="modeled rows per tick (the tick traces price this "
                      "size)"),
            flag("--window-chunks", type=int, default=None,
                 help="sliding window length in chunks"),
            flag("--ticks", type=int, default=None,
                 help="stream length in ticks (must cover at least one "
                      "window)"),
            flag("--decay", type=float, default=None,
                 help="per-tick decay factor of the decayed arm"),
            flag("--shards", type=int, default=None,
                 help="per-chunk summarize parallelism (contiguous shard "
                      "ranges)"),
            _SEED,
            DEVICE,
            REPORT,
        ),
    ),
    Bench(
        "calibrate",
        help="replay a seeded workload through every candidate kernel, fit "
             "per-kernel correction factors, and report planner Q-error "
             "before/after calibration",
        module="repro.bench.calibrate",
        runner="run_calibration_benchmark",
        workload="CalibrationWorkload",
        baseline=None,
        flags=(
            flag("--n", type=int, action="append", dest="ns", default=None,
                 help="input size of the replay grid; repeatable, strictly "
                      "increasing (default: 16384 65536 262144)"),
            flag("--k", type=int, action="append", dest="ks", default=None,
                 help="result size of the replay grid; repeatable, "
                      "strictly increasing (default: 8 64 256 1024)"),
            flag("--profile", dest="profile_name", default=None,
                 choices=sorted(PROFILES),
                 help="workload profile of the replay (default: "
                      "uniform-float)"),
            _SEED,
            DEVICE,
            REPORT,
            flag("--store", default=None,
                 help="persist the fitted calibration store to this JSON "
                      "path"),
            flag("--load", default=None,
                 help="seed the store from a previously persisted JSON "
                      "file (the replay's samples append to it before the "
                      "refit)"),
        ),
    ),
)


# -- The contract -----------------------------------------------------------


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


def add_bench_arguments(parser: argparse.ArgumentParser, bench: Bench) -> None:
    """Wire a registered bench's flags, in its ``--help`` order."""
    for spec in bench.flags:
        if spec is REPORT:
            add_report_arguments(
                parser, bench.baseline and Path(bench.baseline).name
            )
        else:
            names, options = spec
            parser.add_argument(*names, **options)


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
    """Evaluate (ok, message) gates; each failure is one stderr line."""
    status = 0
    for ok, message in gates:
        if not ok:
            print(f"error: {message}", file=sys.stderr)
            status = 1
    return status


def apply_baseline(report, baseline_path: str | None) -> int:
    """Load a committed baseline and report every problem
    :func:`check_baseline` finds."""
    if not baseline_path:
        return 0
    problems = check_baseline(report, load_json(baseline_path, "baseline"))
    for problem in problems:
        print(f"baseline regression: {problem}", file=sys.stderr)
    return 1 if problems else 0


def finish_report(report, arguments) -> int:
    """The whole bench-command tail: artifact, print, gates, baseline."""
    write_report(report, arguments)
    status = apply_gates(report.gates())
    return max(
        status, apply_baseline(report, getattr(arguments, "baseline", None))
    )
