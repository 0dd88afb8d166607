"""Wall-clock benchmark of the repro front doors.

    python3 perfbench/run.py --workload sql-mix --seed 1 --seconds 20 --trace 0

``--workload`` is ``sql-mix``, ``serve-zipf``, ``stream-window`` or ``all``
(each workload in its own process, one after another).  With ``--trace 0``
the timed run reports the end-to-end metrics; with ``--trace 1`` the run
is split into an untraced pass and a traced pass over the same operations,
and reports the per-layer metrics (``perfbench/README.md`` lists them with
the end-to-end metric each should move).  The report's last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run from the root of a checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench"
#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Fewer complete slices than this and a timed run is measured whole.
MIN_SLICES = 3

#: name -> unit (all lower is better except throughput).
END_TO_END = {
    "throughput_ops": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: name -> (unit, better, the end-to-end metric and workload it should move).
#: The last two are guards: the timed run prints them with the end-to-end
#: metrics but keeps them out of its JSON, because at a correct commit they
#: read 0 (failed_share) or repeat exactly (sim_ms_per_op on two workloads).
GUARDS = ("failed_share", "sim_ms_per_op")
PER_LAYER = {
    "engine.sql.parse_ms": ("ms/op", "lower", "latency_p50_ms on sql-mix"),
    "engine.executor.self_ms": ("ms/op", "lower", "latency_p50_ms on sql-mix"),
    "engine.operators.emit_ms": ("ms/op", "lower", "throughput_ops, latency_p50_ms on sql-mix"),
    "bitonic.apply_step_ms": ("ms/op", "lower", "throughput_ops on sql-mix"),
    "bitonic.apply_step_calls": ("count/op", "lower", "throughput_ops on sql-mix"),
    "bitonic.compare_exchanges": ("count/op", "lower", "throughput_ops on sql-mix"),
    "bitonic.padding_share": ("share", "lower", "throughput_ops on sql-mix"),
    "bitonic.build_trace_ms": ("ms/op", "lower", "latency_p50_ms on sql-mix, stream-window"),
    "core.batched.batched_topk_ms": ("ms/op", "lower", "throughput_ops on serve-zipf"),
    "core.batched.rows": ("rows/op", "higher", "throughput_ops on serve-zipf"),
    "core.planner.choose_ms": ("ms/op", "lower", "latency_p99_ms on serve-zipf"),
    "core.planner.choose_calls": ("count/op", "lower", "latency_p99_ms on serve-zipf"),
    "plan.bind_ms": ("ms/op", "lower", "latency_p99_ms on serve-zipf"),
    "algorithms.radik_ms": ("ms/op", "lower", "latency_p90_ms on sql-mix"),
    "approx.kernel_ms": ("ms/op", "lower", "latency_p50_ms on sql-mix, serve-zipf"),
    "approx.measured_recall": ("share", "higher", "answer quality on sql-mix, serve-zipf"),
    "sharding.executor_ms": ("ms/op", "lower", "latency_p90_ms on sql-mix"),
    "sharding.merge_topk_ms": ("ms/op", "lower", "latency_p50_ms on stream-window, sql-mix"),
    "sharding.merge_rows": ("rows/op", "lower", "latency_p50_ms on stream-window, sql-mix"),
    "gpu.trace_time_ms": ("ms/op", "lower", "latency_p50_ms on every workload"),
    "gpu.trace_time_calls": ("count/op", "lower", "latency_p50_ms on every workload"),
    "serving.plan_cache.bound_ms": ("ms/op", "lower", "latency_p50_ms on serve-zipf"),
    "serving.plan_cache.hit_rate": ("share", "higher", "latency_p50_ms on serve-zipf"),
    "serving.plan_cache.evictions": ("count/op", "lower", "latency_p50_ms on serve-zipf"),
    "serving.batcher.group_ms": ("ms/op", "lower", "throughput_ops on serve-zipf"),
    "serving.batcher.execute_ms": ("ms/op", "lower", "throughput_ops on serve-zipf"),
    "serving.batcher.mean_batch_size": ("queries", "higher", "throughput_ops on serve-zipf"),
    "serving.batcher.batched_share": ("share", "higher", "throughput_ops on serve-zipf"),
    "serving.scheduler.queue_wait_p50_ms": ("ms", "lower", "latency_p50_ms, latency_p99_ms on serve-zipf"),
    "serving.rejected": ("count", "lower", "latency_p50_ms, latency_p99_ms on serve-zipf"),
    "streaming.window.advance_ms": ("ms/op", "lower", "latency_p50_ms on stream-window"),
    "streaming.window.emit_ms": ("ms/op", "lower", "latency_p50_ms on stream-window"),
    "streaming.subscription.tick_self_ms": ("ms/op", "lower", "latency_p50_ms on stream-window"),
    "streaming.window.merge_useful_share": ("share", "higher", "latency_p50_ms on stream-window"),
    "observability.trace_overhead_share": ("share", "lower", "the traced run itself, per workload"),
    "failed_share": ("share", "lower", "guard: 0 on every workload"),
    "sim_ms_per_op": ("ms", "lower", "guard: simulated Titan X ms, expected never to move"),
}

#: per-layer metric -> span whose self time it reports
SELF_TIME_SPANS = {
    "engine.sql.parse_ms": "engine.sql.parse",
    "engine.executor.self_ms": "engine.executor",
    "engine.operators.emit_ms": "engine.operators.emit",
    "bitonic.apply_step_ms": "bitonic.apply_step",
    "bitonic.build_trace_ms": "bitonic.build_trace",
    "core.batched.batched_topk_ms": "core.batched.batched_topk",
    "core.planner.choose_ms": "core.planner.choose",
    "plan.bind_ms": "plan.bind",
    "algorithms.radik_ms": "algorithms.radik",
    "approx.kernel_ms": "approx.kernel",
    "sharding.executor_ms": "sharding.executor",
    "sharding.merge_topk_ms": "sharding.merge_topk",
    "gpu.trace_time_ms": "gpu.trace_time",
    "serving.plan_cache.bound_ms": "serving.plan_cache.bound",
    "serving.batcher.group_ms": "serving.batcher.group",
    "serving.batcher.execute_ms": "serving.batcher.execute",
    "streaming.window.advance_ms": "streaming.window.advance",
    "streaming.window.emit_ms": "streaming.window.emit",
    "streaming.subscription.tick_self_ms": "streaming.subscription.tick",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _slices(log, size: int) -> list[tuple[list, float]]:
    """The run's complete slices of ``size`` consecutive ops, each with
    the wall seconds from the end of the slice before it to its own end;
    the whole run as one slice when it holds fewer than MIN_SLICES."""
    count = len(log.ops) // size if size else 0
    if count < MIN_SLICES:
        return [(log.ops, log.wall_s)]
    slices, began = [], log.started
    for number in range(count):
        ops = log.ops[number * size : (number + 1) * size]
        slices.append((ops, ops[-1].ended - began))
        began = ops[-1].ended
    return slices


def timing_metrics(log, size: int) -> tuple[dict, int]:
    """Throughput and latency percentiles of a timed run, and the number
    of slices they are the median of.

    Each metric is taken per slice and the median over slices reported,
    so a stall from another tenant that spans a few slices moves the
    result little; the slices do the same work, so their medians compare.
    """
    per_slice = {name: [] for name in ("throughput_ops", "p50", "p90", "p99")}
    slices = _slices(log, size)
    for ops, wall in slices:
        latencies = [op.latency_ms for op in ops if op.error is None]
        per_slice["throughput_ops"].append(len(latencies) / wall)
        for q in (50, 90, 99):
            per_slice[f"p{q}"].append(_percentile(latencies, q))
    metrics = {
        "throughput_ops": statistics.median(per_slice["throughput_ops"]),
        "latency_p50_ms": statistics.median(per_slice["p50"]),
        "latency_p90_ms": statistics.median(per_slice["p90"]),
        "latency_p99_ms": statistics.median(per_slice["p99"]),
    }
    return metrics, len(slices)


class Measurement:
    """Runs one workload and collects its metrics and answer checks."""

    def __init__(self, workload: str, seed: int):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload](seed)
        # The inputs live for the whole run; keep the cyclic garbage
        # collector from traversing them on the program's behalf.
        gc.collect()
        gc.freeze()
        self.name = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.tie_order = 0
        self.recalls: list[float] = []
        self.sim_ms: list[float] = []
        self.lines: list[str] = []
        self.checked = []

    def _account(self, log) -> None:
        check = self.workload.check(log)
        errors = [op for op in log.ops if op.error is not None]
        self.attempted += len(log.ops)
        self.failed += len(errors) + len(check.wrong)
        self.wrong += len(check.wrong)
        self.tie_order += check.tie_order
        self.recalls += check.recalls
        self.sim_ms += [op.sim_ms for op in log.ops if op.sim_ms is not None]
        for op in errors:
            print(f"failed op {op.index}: {op.error}", file=sys.stderr)
        for position in check.wrong:
            print(f"wrong answer: op {log.ops[position].index}", file=sys.stderr)
        self.checked.append((log, check))

    def _setup(self, repeats: int):
        """Set up ``repeats`` times; keep the last state, return the times."""
        times, state = [], None
        for _ in range(repeats):
            if state is not None:
                self.workload.teardown(state)
            began = time.perf_counter()
            state = self.workload.setup()
            times.append(time.perf_counter() - began)
        return state, times

    def timed(self, seconds: float | None, max_ops: int | None = None) -> dict:
        state, setups = self._setup(SETUP_REPEATS)
        # Through the inputs and the set-ups, which drive the front door,
        # but before the timed loop: the answers it keeps for checking are
        # the benchmark's, and their number grows with throughput.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            log = self.workload.run(state, seconds, max_ops)
        finally:
            self.workload.teardown(state)
        self._account(log)
        metrics, slices = timing_metrics(log, self.workload.slice_ops)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb
        completed = sum(op.error is None for op in log.ops)
        samples = {name: f"{completed} ops, median of {slices} slices" for name in metrics}
        samples["setup_s"] = f"median of {len(setups)}"
        samples["peak_rss_mb"] = 1
        self._describe(log)
        self.lines.append("end-to-end metrics (tracing off):")
        for name, value in metrics.items():
            self._line(name, value, END_TO_END[name], samples[name])
        guards = {"failed_share": self.failed_share(), "sim_ms_per_op": self.sim_ms_per_op()}
        for name in GUARDS:
            self._line(name, guards[name], PER_LAYER[name][0], self.attempted)
        return metrics

    def traced(self, seconds: float | None, max_ops: int | None = None) -> dict:
        from tracing import Tracer

        half = None if seconds is None else seconds / 2
        state, _ = self._setup(1)
        try:
            untraced = self.workload.run(state, half, max_ops)
        finally:
            self.workload.teardown(state)
        ops = len(untraced.ops)
        state, _ = self._setup(1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.workload.run(state, None, ops)
        finally:
            tracer.uninstall()
            self.workload.teardown(state)
        self._account(untraced)
        self._account(traced)
        closed = tracer.check_closure()
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{self.name}-seed{self.seed}.jsonl"
        tracer.write(span_file)
        metrics = self._layer_metrics(tracer, traced, untraced)
        self._describe(traced)
        self.lines.append(
            f"traced pass: {ops} ops, {len(tracer.spans)} spans in {span_file.name}; "
            f"every one of {closed} ops: layer self times + unattributed = wall"
        )
        self.lines.append("per-layer metrics (traced pass; -> end-to-end metric it should move):")
        for name, value in metrics.items():
            unit, _, target = PER_LAYER[name]
            self._line(name, value, unit, ops, target)
        return metrics

    def _layer_metrics(self, tracer, traced, untraced) -> dict:
        ops = len(traced.ops)
        by_layer = tracer.layer_self_ns()
        spans = tracer.span_counts()
        counts = tracer.counters
        metrics = {}
        for name, span in SELF_TIME_SPANS.items():
            metrics[name] = by_layer.get(span, 0) / 1e6 / ops
        extra = traced.extra
        lookups = extra.get("cache_hits", 0) + extra.get("cache_misses", 0)
        queue_waits = extra.get("queue_wait_ms", [])
        metrics.update(
            {
                "bitonic.apply_step_calls": spans["bitonic.apply_step"] / ops,
                "bitonic.compare_exchanges": counts["compare_exchanges"] / ops,
                "bitonic.padding_share": _ratio(
                    counts["padding_elements"], counts["apply_step_elements"]
                ),
                "core.batched.rows": counts["batched_rows"] / ops,
                "core.planner.choose_calls": spans["core.planner.choose"] / ops,
                "approx.measured_recall": (
                    statistics.fmean(self.recalls) if self.recalls else 0.0
                ),
                "sharding.merge_rows": counts["merge_rows"] / ops,
                "gpu.trace_time_calls": spans["gpu.trace_time"] / ops,
                "serving.plan_cache.hit_rate": _ratio(extra.get("cache_hits", 0), lookups),
                "serving.plan_cache.evictions": extra.get("cache_evictions", 0) / ops,
                "serving.batcher.mean_batch_size": _ratio(
                    counts["executed_queries"], counts["executed_groups"]
                ),
                "serving.batcher.batched_share": _ratio(
                    counts["batched_queries"], counts["executed_queries"]
                ),
                "serving.scheduler.queue_wait_p50_ms": (
                    _percentile(queue_waits, 50) if queue_waits else 0.0
                ),
                "serving.rejected": float(extra.get("rejected", 0)),
                "streaming.window.merge_useful_share": _ratio(
                    counts["window_merge_useful"], counts["window_merge_candidates"]
                ),
                "observability.trace_overhead_share": (
                    traced.wall_s - untraced.wall_s
                ) / untraced.wall_s,
                "failed_share": self.failed_share(),
                "sim_ms_per_op": self.sim_ms_per_op(),
            }
        )
        return {name: metrics[name] for name in PER_LAYER}

    def failed_share(self) -> float:
        return _ratio(self.failed, self.attempted)

    def sim_ms_per_op(self) -> float:
        return statistics.fmean(self.sim_ms) if self.sim_ms else 0.0

    def _describe(self, log) -> None:
        self.lines.append(
            f"{self.name} seed={self.seed}: {len(log.ops)} ops in {log.wall_s:.3f} s; "
            f"{self.failed} of {self.attempted} failed ({self.wrong} wrong answers); "
            f"{self.tie_order} exact answers differ from the canonical order "
            "only among rows tied on value"
        )
        self.lines.append(f"inputs sha256={self.workload.inputs_digest()}")
        plans = log.extra.get("plans")
        if plans:
            self.lines.append(
                "plans: " + ", ".join(f"{k}={v}" for k, v in sorted(plans.items()))
            )
        if "cache_hits" in log.extra:
            extra = log.extra
            lookups = extra["cache_hits"] + extra["cache_misses"]
            self.lines.append(
                f"plan cache: hit rate {_ratio(extra['cache_hits'], lookups):.4f} "
                f"over {lookups} lookups, {extra['cache_evictions']} evictions; "
                f"rejected at admission: {extra['rejected']}"
            )

    def _line(self, name, value, unit, samples, target=None) -> None:
        line = f"  {name:40s} {value:14.6f} {unit:9s} n={samples}"
        if target:
            line += f"  -> {target}"
        self.lines.append(line)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }


def measure(workload: str, seed: int, seconds, trace: bool, max_ops=None):
    """Run one workload; returns the measurement (with its report lines)
    and the result object the last line of a run prints."""
    measurement = Measurement(workload, seed)
    if trace:
        metrics = measurement.traced(seconds, max_ops)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics = measurement.timed(seconds, max_ops)
        units = END_TO_END
    return measurement, measurement.result(metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("sql-mix", "serve-zipf", "stream-window", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in ("sql-mix", "serve-zipf", "stream-window"):
            command = [sys.executable, __file__, "--workload", workload]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            command += ["--trace", str(args.trace)]
            status = max(status, subprocess.run(command, check=False).returncode)
        return status
    sys.path.insert(0, str(ROOT / "src"))
    measurement, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(measurement.lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
