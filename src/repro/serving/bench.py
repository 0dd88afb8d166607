"""The serving throughput benchmark behind ``repro serve-bench``.

Replays a synthetic N-query repeated-shape workload two ways and compares
them:

* **sequential** — the pre-serving-layer path: every query pays a fresh
  :meth:`TopKPlanner.choose` and runs its winner alone (one launch
  pipeline per query);
* **served** — through :class:`~repro.serving.TopKServer` with the plan
  cache and cross-query batching enabled (or selectively disabled, for
  ablations).

Both paths must produce *bit-equal* per-query answers — the report carries
an ``identical`` flag the CLI turns into its exit code.  Throughput is
reported in wall-clock queries/second and in simulated milliseconds (the
deterministic figure CI gates on; wall clock is machine-dependent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.registry import create
from repro.core.planner import TopKPlanner
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device
from repro.bench.common import Gate
from repro.gpu.timing import trace_time
from repro.serving.scheduler import TopKServer

#: JSON schema tag of a serialized report.
REPORT_FORMAT = "repro-serving-bench"
REPORT_VERSION = 1


@dataclass
class Workload:
    """A repeated-shape stream of top-k queries."""

    queries: int = 1000
    shapes: int = 4
    n: int = 512
    k: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise InvalidParameterError(
                f"workload needs at least 1 query, got {self.queries}"
            )
        if self.shapes < 1:
            raise InvalidParameterError(
                f"workload needs at least 1 shape, got {self.shapes}"
            )
        if self.n < 1 or self.k < 1:
            raise InvalidParameterError(
                f"invalid workload shape: n = {self.n}, k = {self.k}"
            )

    def generate(self) -> list[tuple[np.ndarray, int]]:
        """Materialize the stream: ``(data, k)`` per query, round-robin
        over ``shapes`` distinct ``(n, k)`` configurations."""
        rng = np.random.default_rng(self.seed)
        stream = []
        for index in range(self.queries):
            shape = index % self.shapes
            k = min(self.k + shape, self.n)
            data = rng.random(self.n, dtype=np.float32)
            stream.append((data, k))
        return stream

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "shapes": self.shapes,
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
        }


@dataclass
class PathResult:
    """One execution path's measurements over the workload."""

    wall_seconds: float
    simulated_ms: float
    values: list = field(repr=False, default_factory=list)
    indices: list = field(repr=False, default_factory=list)

    def queries_per_second(self, queries: int) -> float:
        return queries / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclass
class ServeBenchReport:
    """The benchmark's comparison of sequential vs. served execution."""

    workload: Workload
    sequential: PathResult
    served: PathResult
    identical: bool
    cache: dict
    batcher: dict
    device: str

    #: What a committed baseline holds: both paths' simulated ms, the
    #: plan cache hit rate, and the fused-launch count (more launches than
    #: the baseline means fewer riders per launch). Never wall clock.
    BASELINE_GATES = (
        Gate("sequential.simulated_ms"),
        Gate("served.simulated_ms"),
        Gate("plan_cache.hit_rate", "floor", 0.05),
        Gate("batcher.batches", "ceiling"),
    )

    @property
    def wall_speedup(self) -> float:
        if self.served.wall_seconds <= 0:
            return float("inf")
        return self.sequential.wall_seconds / self.served.wall_seconds

    @property
    def simulated_speedup(self) -> float:
        if self.served.simulated_ms <= 0:
            return float("inf")
        return self.sequential.simulated_ms / self.served.simulated_ms

    @property
    def hit_rate(self) -> float:
        return self.cache.get("hit_rate", 0.0)

    def gates(self) -> list[tuple[bool, str]]:
        return [
            (
                self.identical,
                "served results are not bit-equal to sequential results",
            ),
        ]

    def to_dict(self) -> dict:
        queries = self.workload.queries
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "workload": self.workload.to_dict(),
            "device": self.device,
            "sequential": {
                "wall_seconds": self.sequential.wall_seconds,
                "queries_per_second": self.sequential.queries_per_second(queries),
                "simulated_ms": self.sequential.simulated_ms,
            },
            "served": {
                "wall_seconds": self.served.wall_seconds,
                "queries_per_second": self.served.queries_per_second(queries),
                "simulated_ms": self.served.simulated_ms,
            },
            "wall_speedup": self.wall_speedup,
            "simulated_speedup": self.simulated_speedup,
            "identical": self.identical,
            "plan_cache": dict(self.cache),
            "batcher": dict(self.batcher),
        }

    def render(self) -> str:
        queries = self.workload.queries
        lines = [
            f"workload     : {queries} queries, {self.workload.shapes} shapes, "
            f"n = {self.workload.n}, k = {self.workload.k}+, "
            f"seed = {self.workload.seed}",
            "",
            f"{'path':<12} {'wall s':>9} {'queries/s':>11} {'simulated ms':>13}",
            f"{'sequential':<12} {self.sequential.wall_seconds:>9.3f} "
            f"{self.sequential.queries_per_second(queries):>11.1f} "
            f"{self.sequential.simulated_ms:>13.3f}",
            f"{'served':<12} {self.served.wall_seconds:>9.3f} "
            f"{self.served.queries_per_second(queries):>11.1f} "
            f"{self.served.simulated_ms:>13.3f}",
            "",
            f"speedup      : {self.wall_speedup:.2f}x wall, "
            f"{self.simulated_speedup:.2f}x simulated",
            f"plan cache   : {self.cache['hits']:.0f} hits / "
            f"{self.cache['misses']:.0f} misses "
            f"({self.hit_rate:.1%} hit rate, "
            f"{self.cache['evictions']:.0f} evictions)",
            f"batching     : {self.batcher['batches']} fused launches covering "
            f"{self.batcher['batched_queries']} queries "
            f"(mean batch {self.batcher['mean_batch_size']:.1f}), "
            f"{self.batcher['single_queries']} singles, "
            f"{self.batcher['fallback_queries']} fallbacks",
            f"results      : "
            f"{'bit-equal to sequential' if self.identical else 'MISMATCH'}",
        ]
        return "\n".join(lines)


def _run_sequential(
    stream: list[tuple[np.ndarray, int]], device: DeviceSpec
) -> PathResult:
    """The per-query baseline: plan, then run the winner, every time."""
    planner = TopKPlanner(device)
    values, indices = [], []
    simulated_ms = 0.0
    started = time.perf_counter()
    for data, k in stream:
        choice = planner.choose(len(data), k, data.dtype)
        result = create(choice.algorithm, device).run(data, k)
        simulated_ms += trace_time(result.trace, device).total_ms
        values.append(result.values)
        indices.append(result.indices)
    wall = time.perf_counter() - started
    return PathResult(wall, simulated_ms, values, indices)


def _run_served(
    stream: list[tuple[np.ndarray, int]],
    device: DeviceSpec,
    cache: bool,
    batching: bool,
    max_batch: int,
) -> tuple[PathResult, dict, dict]:
    # The dispatcher stays stalled until the whole workload is enqueued, so
    # the batch splits (and therefore the served simulated-ms total) are
    # deterministic — the property the CI baseline gate relies on.
    server = TopKServer(
        device=device,
        max_pending=len(stream) + 1,
        max_batch=max_batch,
        enable_cache=cache,
        enable_batching=batching,
        auto_start=False,
    )
    try:
        started = time.perf_counter()
        futures = [server.submit(data, k) for data, k in stream]
        server.start()
        outcomes = [future.result() for future in futures]
        wall = time.perf_counter() - started
    finally:
        server.close()
    simulated_ms = server.batcher.simulated_ms_total
    result = PathResult(
        wall,
        simulated_ms,
        [outcome.values for outcome in outcomes],
        [outcome.indices for outcome in outcomes],
    )
    return result, server.plan_cache.stats(), server.batcher.stats()


def _bit_equal(first: PathResult, second: PathResult) -> bool:
    return all(
        np.array_equal(a, b, equal_nan=True) and np.array_equal(i, j)
        for (a, i), (b, j) in zip(
            zip(first.values, first.indices), zip(second.values, second.indices)
        )
    )


def run_serving_benchmark(
    workload: Workload | None = None,
    device: DeviceSpec | None = None,
    cache: bool = True,
    batching: bool = True,
    max_batch: int = 128,
) -> ServeBenchReport:
    """Replay the workload on both paths and compare."""
    workload = workload or Workload()
    device = device or get_device()
    stream = workload.generate()
    sequential = _run_sequential(stream, device)
    served, cache_stats, batcher_stats = _run_served(
        stream, device, cache, batching, max_batch
    )
    return ServeBenchReport(
        workload=workload,
        sequential=sequential,
        served=served,
        identical=_bit_equal(sequential, served),
        cache=cache_stats,
        batcher=batcher_stats,
        device=device.name,
    )
