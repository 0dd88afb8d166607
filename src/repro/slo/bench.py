"""The SLO load-sweep benchmark behind ``repro slo-bench``.

Sweeps offered load past the serving tier's saturation point and runs
the *same* open-loop trace through two arms at every rate:

* **fifo** — the pre-SLO control: arrival order, no deadlines honored,
  no degradation, global admission bound only;
* **slo** — the full ladder: EDF ordering, per-class budgets, recall
  degradation, overdue shedding.

Three properties are computed, and ``gates()`` fails the run on each
(``slo-bench`` in CI's ``smoke`` matrix):

1. **Dominance** — past saturation (FIFO goodput below
   :data:`SATURATION_GOODPUT`), the SLO arm's goodput strictly exceeds
   FIFO's: graceful degradation must buy something real.
2. **Honest degradation** — the mean *measured* recall of degraded
   answers (vs. the exact top-k of the same windows) meets the minimum
   recall floor those answers advertised: degradation is a contract,
   not a shrug.
3. **Exactness below saturation** — at rates where the SLO arm never
   degraded, shed, or rejected, its answers are bit-equal to FIFO's:
   the ladder costs nothing until pressure demands it.

Everything gated is in simulated time, so the report is deterministic
for a fixed workload seed; wall time is reported but never compared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device
from repro.observability.metrics import MetricsRegistry
from repro.serving.plan_cache import PlanCache
from repro.slo.arrivals import OpenLoopWorkload
from repro.bench.common import Gate
from repro.slo.qos import DEFAULT_POLICY, SloPolicy
from repro.slo.scheduler import FifoScheduler, SloScheduler
from repro.slo.simulator import SimulationResult, simulate

#: JSON schema tag of a serialized report.
REPORT_FORMAT = "repro-slo-bench"
REPORT_VERSION = 1

#: A rate point counts as saturated when FIFO goodput falls below this.
SATURATION_GOODPUT = 0.9

#: Default sweep: two rates below the exact-path capacity (~20 q/ms on
#: the default device), three past it — deep enough that every ladder
#: rung (EDF, degradation, shedding) is exercised.
DEFAULT_RATES = (8.0, 16.0, 28.0, 40.0, 60.0)


@dataclass
class RatePoint:
    """Both arms' results at one offered rate."""

    rate: float
    fifo: SimulationResult
    slo: SimulationResult
    #: Bit-equality of the two arms' answers; only claimed when the SLO
    #: arm ran every query exactly (no degradation, shedding, rejection).
    identical: bool
    wall_seconds: float

    @property
    def saturated(self) -> bool:
        return self.fifo.goodput < SATURATION_GOODPUT

    @property
    def pristine(self) -> bool:
        """The SLO arm never left the exact path at this rate."""
        return (
            self.slo.degraded_count == 0
            and self.slo.shed_count == 0
            and self.slo.rejected_count == 0
        )

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "saturated": self.saturated,
            "pristine": self.pristine,
            "identical": self.identical,
            "wall_seconds": self.wall_seconds,
            "fifo": self.fifo.to_dict(),
            "slo": self.slo.to_dict(),
        }


@dataclass
class SloBenchReport:
    """The sweep plus its three gated properties."""

    workload: dict
    points: list[RatePoint]
    device: str

    #: What a committed baseline holds: both arms' goodput at every rate
    #: and the SLO arm's gold-class p99 simulated latency (skipped at a
    #: rate where either side completed no gold query).
    BASELINE_GATES = (
        Gate("points[rate].fifo.goodput"),
        Gate("points[rate].slo.goodput"),
        Gate("points[rate].slo.classes.gold.p99", optional=True),
    )

    @property
    def dominates(self) -> bool:
        """Strict SLO > FIFO goodput at every saturated rate (and the
        sweep must actually reach saturation)."""
        saturated = [point for point in self.points if point.saturated]
        return bool(saturated) and all(
            point.slo.goodput > point.fifo.goodput for point in saturated
        )

    @property
    def recall_honest(self) -> bool:
        """Degradation happened somewhere, and everywhere it happened the
        mean measured recall met the advertised floor."""
        degraded_points = [
            point for point in self.points if point.slo.degraded_count > 0
        ]
        if not degraded_points:
            return False
        for point in degraded_points:
            measured = point.slo.mean_measured_recall()
            floor = point.slo.min_advertised_recall()
            if measured is None or floor is None or measured < floor - 1e-9:
                return False
        return True

    @property
    def exact_below_saturation(self) -> bool:
        """At least one pristine rate exists and every pristine rate is
        bit-equal to the FIFO arm."""
        pristine = [point for point in self.points if point.pristine]
        return bool(pristine) and all(point.identical for point in pristine)

    def gates(self) -> list[tuple[bool, str]]:
        return [
            (
                self.dominates,
                "the SLO arm did not beat FIFO goodput at every saturated "
                "rate (dominance)",
            ),
            (
                self.recall_honest,
                "degraded answers missed their advertised recall floors "
                "(recall honesty)",
            ),
            (
                self.exact_below_saturation,
                "rates below saturation were not bit-equal to the exact "
                "path (below-saturation exactness)",
            ),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.gates())

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "workload": dict(self.workload),
            "device": self.device,
            "rates": [point.rate for point in self.points],
            "dominates": self.dominates,
            "recall_honest": self.recall_honest,
            "exact_below_saturation": self.exact_below_saturation,
            "passed": self.passed,
            "points": [point.to_dict() for point in self.points],
        }

    def render(self) -> str:
        lines = [
            f"workload     : {self.workload['queries']} queries, "
            f"{self.workload['process']} arrivals, "
            f"n in [{self.workload['n_min']}, {self.workload['n_max']}), "
            f"k = {self.workload['k']}, seed = {self.workload['seed']}",
            "",
            f"{'rate q/ms':>9} {'fifo good':>10} {'slo good':>9} "
            f"{'degraded':>9} {'shed':>6} {'rejected':>9} "
            f"{'gold p99 ms':>12} {'recall':>8}",
        ]
        for point in self.points:
            p99 = point.slo.class_latency("gold").get("p99")
            measured = point.slo.mean_measured_recall()
            p99_text = "-" if p99 is None else f"{p99:.3f}"
            recall_text = "-" if measured is None else f"{measured:.4f}"
            lines.append(
                f"{point.rate:>9.1f} {point.fifo.goodput:>10.3f} "
                f"{point.slo.goodput:>9.3f} "
                f"{point.slo.degraded_count:>9} {point.slo.shed_count:>6} "
                f"{point.slo.rejected_count:>9} "
                f"{p99_text:>12} {recall_text:>8}"
            )
        lines += [
            "",
            f"dominance    : "
            f"{'SLO > FIFO at every saturated rate' if self.dominates else 'FAILED'}",
            f"degradation  : "
            f"{'measured recall met advertised floors' if self.recall_honest else 'FAILED'}",
            f"below satur. : "
            f"{'bit-equal to the exact path' if self.exact_below_saturation else 'FAILED'}",
        ]
        return "\n".join(lines)


def _bit_equal(fifo: SimulationResult, slo: SimulationResult) -> bool:
    """Answer-for-answer equality of the two arms' served results."""
    for first, second in zip(fifo.answers, slo.answers):
        if (first.values is None) != (second.values is None):
            return False
        if first.values is None:
            continue
        if not (
            np.array_equal(first.values, second.values)
            and np.array_equal(first.indices, second.indices)
        ):
            return False
    return True


def run_slo_benchmark(
    queries: int = 120,
    rates: tuple = DEFAULT_RATES,
    process: str = "poisson",
    seed: int = 0,
    device: DeviceSpec | None = None,
    policy: SloPolicy = DEFAULT_POLICY,
    cache_capacity: int = 1024,
) -> SloBenchReport:
    """Sweep offered load through both arms on shared traces."""
    if not rates:
        raise InvalidParameterError("the sweep needs at least one rate")
    device = device or get_device()
    # One plan cache for the whole sweep: planning is payload-independent,
    # so sharing it only removes redundant cost-model evaluations (the
    # dominant wall cost — each distinct window length plans once).
    plan_cache = PlanCache(device=device, capacity=cache_capacity)
    points: list[RatePoint] = []
    workload_dict: dict = {}
    for rate in rates:
        workload = OpenLoopWorkload(
            queries=queries, rate_per_ms=float(rate), process=process, seed=seed
        )
        column, trace = workload.generate()
        started = time.perf_counter()
        fifo = simulate(
            workload,
            FifoScheduler(policy, device=device),
            device=device,
            plan_cache=plan_cache,
            metrics=MetricsRegistry(),
            column=column,
            trace=trace,
        )
        slo = simulate(
            workload,
            SloScheduler(policy, device=device),
            device=device,
            plan_cache=plan_cache,
            metrics=MetricsRegistry(),
            column=column,
            trace=trace,
        )
        wall = time.perf_counter() - started
        points.append(
            RatePoint(
                rate=float(rate),
                fifo=fifo,
                slo=slo,
                identical=_bit_equal(fifo, slo),
                wall_seconds=wall,
            )
        )
        workload_dict = {
            key: value
            for key, value in workload.to_dict().items()
            if key != "rate_per_ms"
        }
    return SloBenchReport(workload_dict, points, device.name)
