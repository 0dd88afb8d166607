"""Top-level command line: run top-k, the planner, EXPLAIN, or tracing.

Examples::

    python -m repro topk --n 1048576 --k 32
    python -m repro topk --n 1048576 --k 32 --algorithm radix-select \\
        --distribution bucket_killer --model-n 536870912
    python -m repro plan --n 536870912 --k 256 --dtype uint32
    python -m repro explain "SELECT id FROM tweets ORDER BY retweet_count \\
        DESC LIMIT 50" --rows 262144 --model-rows 250000000
    python -m repro explain --k 64 --window 262144 --chunk-rows 16384
    python -m repro trace --n 1048576 --k 32 --out trace.json
    python -m repro trace "SELECT id FROM tweets ORDER BY likes DESC \\
        LIMIT 50" --rows 262144
    python -m repro profile --n 1048576 --k 32
    python -m repro chaos --seed 0 --trials 50
    python -m repro figure-bench --figure fig11a --figure abl43
    python -m repro serve-bench --queries 1000 --shapes 4 --n 512 --k 8
    python -m repro approx-bench --baseline benchmarks/baselines/BENCH_approx.json
    python -m repro shard-bench --baseline benchmarks/baselines/BENCH_sharding.json
    python -m repro slo-bench --baseline benchmarks/baselines/BENCH_slo.json
    python -m repro radix-bench --baseline benchmarks/baselines/BENCH_radix.json
    python -m repro stream-bench --baseline benchmarks/baselines/BENCH_streaming.json
    python -m repro calibrate --store calibration.json

The bench commands (``*-bench`` and ``calibrate``) are built from
:data:`repro.bench.common.BENCHES` and all run through one command path.
Every command reports failures as one-line typed errors on stderr, with a
distinct exit code per :class:`~repro.errors.ReproError` subclass (see
``repro.errors.EXIT_CODES``).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys

import numpy as np

from repro import observability as obs
from repro.algorithms.registry import list_algorithms
from repro.bench.common import (
    BENCHES,
    add_bench_arguments,
    finish_report,
    load_json,
)
from repro.core.planner import TopKPlanner
from repro.core.topk import topk
from repro.costmodel.base import PROFILES, get_profile
from repro.data.distributions import generate, list_distributions
from repro.errors import InvalidParameterError, ReproError, exit_code
from repro.gpu.device import get_device, list_devices

_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "int32": np.int32,
    "int64": np.int64,
    "uint32": np.uint32,
    "uint64": np.uint64,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the SIGMOD 2018 bitonic top-k paper.",
    )
    commands = parser.add_subparsers(dest="command")

    run = commands.add_parser("topk", help="run a top-k and report timings")
    run.add_argument("--n", type=int, default=1 << 20, help="input size")
    run.add_argument("--k", type=int, default=32)
    run.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto"] + list_algorithms(),
    )
    run.add_argument(
        "--distribution", default="uniform", choices=list_distributions()
    )
    run.add_argument("--device", default="titan-x-maxwell", choices=list_devices())
    run.add_argument(
        "--model-n", type=int, default=None,
        help="input size the execution trace models (default: --n)",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--timeline", action="store_true", help="print the kernel timeline"
    )
    run.set_defaults(handler=_command_topk)

    plan = commands.add_parser("plan", help="rank algorithms by predicted cost")
    plan.add_argument("--n", type=int, default=1 << 29)
    plan.add_argument("--k", type=int, default=64)
    plan.add_argument("--dtype", default="float32", choices=sorted(_DTYPES))
    plan.add_argument("--profile", default="uniform-float", choices=sorted(PROFILES))
    plan.add_argument("--device", default="titan-x-maxwell", choices=list_devices())
    plan.set_defaults(handler=_command_plan)

    explain = commands.add_parser(
        "explain",
        help="cost out a SQL query on synthetic tweets, or (with "
             "--window/--decay) a continuous subscription over the stream",
    )
    explain.add_argument(
        "sql", nargs="?", default=None,
        help="the query text (table must be 'tweets'); omitted for "
             "subscription EXPLAIN (--window/--decay)",
    )
    explain.add_argument("--rows", type=int, default=1 << 16,
                         help="functional table size")
    explain.add_argument("--model-rows", type=int, default=250_000_000)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument(
        "--json", action="store_true",
        help="emit the plan (with each strategy's physical plan tree) "
             "as JSON instead of the rendered text",
    )
    explain.add_argument(
        "--shards", type=int, default=1,
        help="partition budget; above 1 the exact strategies plan a Merge "
             "over per-shard Scan→TopK subtrees",
    )
    explain.add_argument(
        "--window", type=int, default=None,
        help="subscription EXPLAIN: sliding window in rows (a multiple of "
             "--chunk-rows); prices incremental vs recompute maintenance",
    )
    explain.add_argument(
        "--decay", type=float, default=None,
        help="subscription EXPLAIN: per-tick exponential decay factor",
    )
    explain.add_argument(
        "--chunk-rows", type=int, default=1 << 14,
        help="subscription EXPLAIN: rows arriving per tick",
    )
    explain.add_argument(
        "--k", type=int, default=64,
        help="subscription EXPLAIN: result size",
    )
    explain.set_defaults(handler=_command_explain)

    for name, help_text, handler in [
        ("trace", "run a workload under tracing and export the trace",
         _command_trace),
        ("profile", "run a workload and print its span tree + metrics",
         _command_profile),
    ]:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument(
            "sql", nargs="?", default=None,
            help="optional SQL query (table must be 'tweets'); "
                 "when omitted a top-k workload is traced instead",
        )
        sub.add_argument("--n", type=int, default=1 << 20, help="input size")
        sub.add_argument("--k", type=int, default=32)
        sub.add_argument(
            "--algorithm", default="auto", choices=["auto"] + list_algorithms()
        )
        sub.add_argument(
            "--distribution", default="uniform", choices=list_distributions()
        )
        sub.add_argument(
            "--device", default="titan-x-maxwell", choices=list_devices()
        )
        sub.add_argument(
            "--model-n", type=int, default=None,
            help="input size the execution trace models (default: --n)",
        )
        sub.add_argument("--rows", type=int, default=1 << 16,
                         help="functional table size (SQL mode)")
        sub.add_argument("--model-rows", type=int, default=None,
                         help="modeled table size (SQL mode)")
        sub.add_argument("--seed", type=int, default=0)
        if name == "trace":
            sub.add_argument(
                "--out", default="trace.json",
                help="output path for the exported trace",
            )
            sub.add_argument(
                "--format", dest="trace_format", default="chrome",
                choices=["chrome", "jsonl"],
                help="chrome://tracing JSON or JSON-lines",
            )

    chaos = commands.add_parser(
        "chaos",
        help="run the fault-injection chaos suite and report survival",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--trials", type=int, default=50)
    chaos.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of the text summary",
    )
    chaos.set_defaults(handler=_command_chaos)

    for bench in BENCHES:
        sub = commands.add_parser(bench.name, help=bench.help)
        add_bench_arguments(sub, bench)
        sub.set_defaults(handler=_command_bench, bench=bench)
    return parser


def _command_topk(arguments) -> int:
    device = get_device(arguments.device)
    data = generate(arguments.distribution, arguments.n, arguments.seed)
    result = topk(
        data,
        arguments.k,
        algorithm=arguments.algorithm,
        device=device,
        model_n=arguments.model_n,
    )
    model_n = arguments.model_n or arguments.n
    print(f"algorithm   : {result.algorithm}")
    print(f"n / k       : {arguments.n} / {arguments.k} "
          f"({arguments.distribution}, {data.dtype})")
    print(f"model n     : {model_n}")
    print(f"simulated   : {result.simulated_ms(device):.3f} ms on {device.name}")
    print(f"top values  : {np.array2string(result.values[:8], precision=6)}")
    print(f"top rows    : {result.indices[:8].tolist()}")
    if arguments.timeline:
        print(result.simulated_time(device).render())
    return 0


def _command_plan(arguments) -> int:
    device = get_device(arguments.device)
    planner = TopKPlanner(device)
    choice = planner.choose(
        arguments.n,
        arguments.k,
        np.dtype(_DTYPES[arguments.dtype]),
        get_profile(arguments.profile),
    )
    print(f"configuration: n = {arguments.n}, k = {arguments.k}, "
          f"{arguments.dtype}, {arguments.profile}, {device.name}")
    print(f"choice       : {choice.algorithm} "
          f"({choice.predicted_ms:.2f} ms predicted)")
    for name, seconds in choice.candidates:
        print(f"  {name:>14}: {seconds * 1e3:9.2f} ms")
    return 0


def _command_explain(arguments) -> int:
    from repro.engine.session import Session

    session = Session(shards=arguments.shards)
    if arguments.window is not None or arguments.decay is not None:
        plan = session.explain_stream(
            arguments.k,
            arguments.chunk_rows,
            window=arguments.window,
            decay=arguments.decay,
        )
    else:
        if arguments.sql is None:
            raise InvalidParameterError(
                "explain needs a SQL query, or --window/--decay for a "
                "subscription"
            )
        from repro.engine.twitter import generate_tweets

        session.register(generate_tweets(arguments.rows, arguments.seed))
        plan = session.explain(arguments.sql, model_rows=arguments.model_rows)
    if arguments.json:
        import json

        print(json.dumps(plan.to_dict(), indent=2))
    else:
        print(plan.render())
    return 0


def _run_observed(arguments) -> tuple[obs.Observation, float]:
    """Run the requested workload under observation.

    Returns the populated observation and the workload's simulated
    milliseconds (the figure the kernel spans must sum to).
    """
    observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
    device = get_device(arguments.device)
    if arguments.sql is not None:
        from repro.engine.session import Session
        from repro.engine.twitter import generate_tweets

        session = Session(device)
        session.observation = observation
        session.register(generate_tweets(arguments.rows, arguments.seed))
        result = session.sql(arguments.sql, model_rows=arguments.model_rows)
        simulated_ms = result.simulated_ms()
    else:
        data = generate(arguments.distribution, arguments.n, arguments.seed)
        with observation.activate():
            result = topk(
                data,
                arguments.k,
                algorithm=arguments.algorithm,
                device=device,
                model_n=arguments.model_n,
            )
        simulated_ms = result.simulated_ms(device)
    return observation, simulated_ms


def _command_trace(arguments) -> int:
    observation, simulated_ms = _run_observed(arguments)
    tracer, metrics = observation.tracer, observation.metrics
    if arguments.trace_format == "chrome":
        obs.write_chrome_trace(arguments.out, tracer, metrics)
    else:
        obs.write_jsonl(arguments.out, tracer, metrics)
    kernel_ms = tracer.total_sim_ms("kernel")
    print(f"spans       : {tracer.num_spans}")
    print(f"kernels     : {len(tracer.spans('kernel'))}")
    print(f"simulated   : {simulated_ms:.3f} ms "
          f"(kernel spans sum to {kernel_ms:.3f} ms)")
    print(f"trace       : {arguments.out} ({arguments.trace_format})")
    if abs(kernel_ms - simulated_ms) > 1e-6 * max(1.0, simulated_ms):
        print("WARNING: kernel span total disagrees with the simulated time")
        return 1
    return 0


def _command_profile(arguments) -> int:
    observation, simulated_ms = _run_observed(arguments)
    print(observation.tracer.render())
    print()
    print(observation.metrics.render())
    print()
    print(f"simulated total: {simulated_ms:.3f} ms")
    return 0


def _command_chaos(arguments) -> int:
    from repro.resilience.chaos import run_campaign

    if arguments.trials < 1:
        raise InvalidParameterError(
            f"--trials must be at least 1, got {arguments.trials}"
        )
    report = run_campaign(seed=arguments.seed, trials=arguments.trials)
    if arguments.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.survived else 1


def _set_flags(arguments, names) -> dict:
    """The named flags the command line set, repeatable ones as tuples."""
    settings = {}
    for name in names:
        value = getattr(arguments, name, None)
        if value is not None:
            settings[name] = tuple(value) if isinstance(value, list) else value
    return settings


def _runner_options(arguments) -> dict:
    """Runner keywords that are not workload fields: serve's switches and
    the calibration store."""
    if arguments.command == "serve-bench":
        return {
            "cache": not arguments.no_cache,
            "batching": not arguments.no_batch,
            "max_batch": arguments.max_batch,
        }
    if arguments.command == "calibrate":
        from repro.costmodel.calibration import CalibrationStore

        if arguments.load:
            return {
                "store": CalibrationStore.from_dict(
                    load_json(arguments.load, "calibration store")
                )
            }
        return {"store": CalibrationStore()}
    return {}


def _command_bench(arguments) -> int:
    """Run one registered bench: the flags that were set override its
    workload's defaults, then the report's gates and baseline decide."""
    bench = arguments.bench
    module = importlib.import_module(bench.module)
    run = getattr(module, bench.runner)
    device = get_device(arguments.device)
    if bench.workload is None:
        report = run(device=device, **_set_flags(arguments, bench.settings))
    else:
        workload = getattr(module, bench.workload)
        names = [field.name for field in dataclasses.fields(workload)]
        options = _runner_options(arguments)
        report = run(
            dataclasses.replace(workload(), **_set_flags(arguments, names)),
            device=device,
            **options,
        )
        if getattr(arguments, "store", None):
            options["store"].save(arguments.store)
    return finish_report(report, arguments)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if not hasattr(arguments, "handler"):
        parser.print_help()
        return 2
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        # One-line typed diagnostics; each error class has its own exit
        # code so scripts can dispatch on the failure mode.
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code(error)


if __name__ == "__main__":
    raise SystemExit(main())
