"""The sharding scaling benchmark behind ``repro shard-bench``.

Runs one fixed top-k workload at every shard count in the grid (1, 2, 4,
8 by default) through :class:`~repro.sharding.executor.ShardedTopK` and
reports, per point:

* **simulated milliseconds** of the whole sharded execution — the
  deterministic figure CI gates on (wall clock is never reported, let
  alone gated);
* the **speedup** over the single-shard point;
* the slowest shard's **critical-path milliseconds** (the concurrent
  kernel), which shows where scaling flattens as the gather/merge
  overhead stops amortizing;
* whether the result is **bit-equal** to the single-device reference —
  the exactness claim, checked on every point.

The acceptance gate mirrors the issue's criterion: simulated time must
improve *monotonically* from 1 shard through :data:`GATE_MAX_SHARDS`
(larger counts are reported but not gated — past the knee the fixed
per-shard overheads may win).  CI additionally gates every point's
simulated milliseconds against the committed
``benchmarks/baselines/BENCH_sharding.json`` through the one baseline
checker, :func:`repro.bench.common.check_baseline`, over
:attr:`ShardBenchReport.BASELINE_GATES`.

Functional arrays are capped at ``functional_cap`` elements (exactness
is checked on the functional payload; the trace models the full
``model n`` regardless), so the curve stays fast enough for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import reference_topk
from repro.bench.common import Gate
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import trace_time
from repro.sharding.executor import ShardedTopK

#: JSON schema tag of a serialized report.
REPORT_FORMAT = "repro-sharding-bench"
REPORT_VERSION = 1

#: The scaling gate's upper end: simulated time must strictly improve at
#: every step from 1 shard through this count.
GATE_MAX_SHARDS = 4


@dataclass
class ShardWorkload:
    """One fixed ``(model n, k)`` workload swept across shard counts."""

    model_n: int = 1 << 26
    k: int = 256
    shard_counts: tuple = (1, 2, 4, 8)
    functional_cap: int = 1 << 19
    seed: int = 0

    def __post_init__(self) -> None:
        self.model_n = int(self.model_n)
        self.k = int(self.k)
        self.shard_counts = tuple(int(s) for s in self.shard_counts)
        self.functional_cap = int(self.functional_cap)
        if self.model_n < 1 or self.k < 1:
            raise InvalidParameterError(
                f"invalid workload shape: model_n = {self.model_n}, "
                f"k = {self.k}"
            )
        if self.k > self.model_n:
            raise InvalidParameterError(
                f"k = {self.k} exceeds model_n = {self.model_n}"
            )
        if not self.shard_counts:
            raise InvalidParameterError(
                "the curve needs at least one shard count"
            )
        if min(self.shard_counts) < 1:
            raise InvalidParameterError(
                f"shard counts must be positive, got {self.shard_counts}"
            )
        if list(self.shard_counts) != sorted(set(self.shard_counts)):
            raise InvalidParameterError(
                f"shard counts must be strictly increasing, "
                f"got {self.shard_counts}"
            )
        functional_n = min(self.model_n, self.functional_cap)
        if functional_n < self.k:
            raise InvalidParameterError(
                f"functional_cap {self.functional_cap} is smaller than "
                f"k = {self.k}"
            )
        if functional_n < max(self.shard_counts):
            raise InvalidParameterError(
                f"functional payload of {functional_n} rows cannot be split "
                f"into {max(self.shard_counts)} shards"
            )

    def data(self) -> np.ndarray:
        """The functional payload, seeded by the workload coordinates so a
        re-run reproduces the curve exactly."""
        rng = np.random.default_rng([self.seed, self.model_n, self.k])
        functional_n = min(self.model_n, self.functional_cap)
        return rng.random(functional_n, dtype=np.float32)

    def to_dict(self) -> dict:
        return {
            "model_n": self.model_n,
            "k": self.k,
            "shard_counts": list(self.shard_counts),
            "functional_cap": self.functional_cap,
            "seed": self.seed,
        }


@dataclass
class ShardPoint:
    """One shard count's measurement on the workload."""

    shards: int
    simulated_ms: float
    #: The slowest shard's inner-kernel milliseconds (the critical path).
    max_shard_ms: float
    #: Bit-equality against the single-device reference oracle.
    identical: bool

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "simulated_ms": self.simulated_ms,
            "max_shard_ms": self.max_shard_ms,
            "identical": self.identical,
        }


@dataclass
class ShardBenchReport:
    """The scaling curve plus the monotonic-improvement verdict."""

    workload: ShardWorkload
    device: str
    points: list = field(default_factory=list)

    #: What a committed baseline holds: each point's simulated ms.
    BASELINE_GATES = (Gate("points[shards].simulated_ms"),)

    @property
    def identical(self) -> bool:
        """Every point bit-equal to the single-device reference."""
        return all(point.identical for point in self.points)

    def gated_points(self) -> list:
        """The prefix of the curve the monotonic gate applies to."""
        return [p for p in self.points if p.shards <= GATE_MAX_SHARDS]

    @property
    def monotonic(self) -> bool:
        """Simulated time strictly improves at every gated step."""
        gated = self.gated_points()
        return all(
            later.simulated_ms < earlier.simulated_ms
            for earlier, later in zip(gated, gated[1:])
        )

    def gates(self) -> list[tuple[bool, str]]:
        return [
            (
                self.identical,
                "sharded results are not bit-equal to the single-device "
                "reference",
            ),
            (
                self.monotonic,
                "simulated time does not improve monotonically across the "
                "gated shard counts",
            ),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.gates())

    def speedup(self, point: ShardPoint) -> float:
        base = self.points[0].simulated_ms if self.points else 0.0
        return base / point.simulated_ms if point.simulated_ms > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "workload": self.workload.to_dict(),
            "device": self.device,
            "points": [point.to_dict() for point in self.points],
            "gates": {
                "monotonic_through": GATE_MAX_SHARDS,
                "identical": True,
            },
            "monotonic": self.monotonic,
            "identical": self.identical,
            "passed": self.passed,
        }

    def render(self) -> str:
        lines = [
            f"device       : {self.device}",
            f"workload     : model n = {self.workload.model_n}, "
            f"k = {self.workload.k}, seed = {self.workload.seed}",
            "",
            f"{'shards':>7} {'sim ms':>10} {'speedup':>8} "
            f"{'max shard ms':>13} {'exact':>6}",
        ]
        for point in self.points:
            gated = " *" if point.shards <= GATE_MAX_SHARDS else ""
            lines.append(
                f"{point.shards:>7} {point.simulated_ms:>10.4f} "
                f"{self.speedup(point):>7.2f}x {point.max_shard_ms:>13.4f} "
                f"{'yes' if point.identical else 'NO':>6}{gated}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append("")
        lines.append(
            f"gate (*)     : bit-equal everywhere and strictly faster at "
            f"every step through {GATE_MAX_SHARDS} shards -> {verdict}"
        )
        return "\n".join(lines)


def run_sharding_benchmark(
    workload: ShardWorkload | None = None,
    device: DeviceSpec | None = None,
) -> ShardBenchReport:
    """Run the scaling curve and assemble the report."""
    workload = workload or ShardWorkload()
    device = device or get_device()
    data = workload.data()
    oracle_values, oracle_indices = reference_topk(data, workload.k)
    report = ShardBenchReport(workload=workload, device=device.name)
    for shards in workload.shard_counts:
        result = ShardedTopK(device, shards=shards).run(
            data, workload.k, model_n=workload.model_n
        )
        report.points.append(
            ShardPoint(
                shards=shards,
                simulated_ms=trace_time(result.trace, device).total_ms,
                max_shard_ms=result.trace.notes.get("sharding.max_shard_ms", 0.0),
                identical=bool(
                    np.array_equal(result.values, oracle_values, equal_nan=True)
                    and np.array_equal(result.indices, oracle_indices)
                ),
            )
        )
    return report
