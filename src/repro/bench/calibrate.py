"""The calibration replay behind ``repro calibrate``.

Replays a seeded workload grid through the full calibration loop
(``docs/calibration.md``): every ``(n, k)`` configuration is planned by
the uncalibrated :class:`~repro.core.planner.TopKPlanner`, every ranked
candidate kernel is *executed* on the seeded payload, and each
``(predicted ms, observed simulated ms)`` pair is recorded into a
:class:`~repro.costmodel.calibration.CalibrationStore`.  One
:meth:`~repro.costmodel.calibration.CalibrationStore.refit` later, the
report compares per-kernel planner Q-error (``max(pred/obs, obs/pred)``)
**before** (raw Section 7 predictions) and **after** (predictions times
the fitted correction factors), and replays the planning decisions.

Everything is simulated milliseconds — deterministic for a given seed
and grid, which is what lets CI gate the run and lets the determinism
tests diff the persisted store byte for byte.

The acceptance gates mirror the issue's criteria:

* **Q-error improves** — the post-calibration p95 Q-error (overall and
  per fitted kernel) is no worse than pre-calibration;
* **decisions stay sound** — with the fitted corrections applied
  (``TopKPlanner(calibrate=True)``) every configuration's chosen kernel
  is observed-optimal within :data:`OPTIMALITY_TOLERANCE`, or at worst
  carries no more observed regret than the uncalibrated choice —
  corrections drifting a decision *away* from the observed optimum is
  what fails the gate;
* **the default stays bit-identical** — replanning every configuration
  with ``calibrate=False`` after the refit reproduces the original
  decision exactly (the knob's off position cannot drift, which is what
  keeps the EXPLAIN goldens stable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.topk import topk
from repro.costmodel.base import get_profile
from repro.costmodel.calibration import (
    CalibrationStore,
    q_error,
    record_sample,
)
from repro.errors import InvalidParameterError, ResourceExhaustedError
from repro.gpu.device import DeviceSpec, get_device

#: JSON schema tag of a serialized report.
REPORT_FORMAT = "repro-calibrate-report"
REPORT_VERSION = 1

#: A calibrated decision is "optimal" when its observed simulated time is
#: within this fraction of the best observed kernel for the shape —
#: corrected predictions are medians, not oracles, so photo-finish ties
#: must not fail the gate.
OPTIMALITY_TOLERANCE = 0.10


def _quantile(values: list[float], q: float) -> float | None:
    """Exact nearest-rank quantile (the Summary metric's convention)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


@dataclass
class CalibrationWorkload:
    """The seeded replay grid: every k at every n (where k <= n)."""

    ns: tuple = (1 << 14, 1 << 16, 1 << 18)
    ks: tuple = (8, 64, 256, 1024)
    profile_name: str = "uniform-float"
    seed: int = 0

    def __post_init__(self) -> None:
        self.ns = tuple(int(n) for n in self.ns)
        self.ks = tuple(int(k) for k in self.ks)
        self.profile_name = str(self.profile_name)
        self.seed = int(self.seed)
        if not self.ns:
            raise InvalidParameterError("the replay needs at least one n")
        if list(self.ns) != sorted(set(self.ns)):
            raise InvalidParameterError(
                f"n grid must be strictly increasing, got {self.ns}"
            )
        if min(self.ns) < 1:
            raise InvalidParameterError(f"n must be positive, got {self.ns}")
        if not self.ks:
            raise InvalidParameterError("the replay needs at least one k")
        if list(self.ks) != sorted(set(self.ks)):
            raise InvalidParameterError(
                f"k grid must be strictly increasing, got {self.ks}"
            )
        if min(self.ks) < 1:
            raise InvalidParameterError(f"k must be positive, got {self.ks}")
        if min(self.ks) > max(self.ns):
            raise InvalidParameterError(
                f"no k in {self.ks} fits the largest n ({max(self.ns)})"
            )
        get_profile(self.profile_name)  # validates the name
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")

    def configs(self) -> list[tuple[int, int]]:
        return [(n, k) for n in self.ns for k in self.ks if k <= n]

    def data(self, n: int) -> np.ndarray:
        """The functional payload for one n, seeded per (seed, n)."""
        rng = np.random.default_rng([self.seed, n])
        return rng.random(n, dtype=np.float32)

    def to_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "ks": list(self.ks),
            "profile": self.profile_name,
            "seed": self.seed,
        }


@dataclass
class CalibrationPoint:
    """One executed (configuration, kernel) pair of the replay."""

    n: int
    k: int
    kernel: str
    predicted_ms: float
    observed_ms: float
    corrected_ms: float | None = None

    @property
    def q_error_before(self) -> float:
        return q_error(self.predicted_ms, self.observed_ms)

    @property
    def q_error_after(self) -> float | None:
        if self.corrected_ms is None:
            return None
        return q_error(self.corrected_ms, self.observed_ms)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "kernel": self.kernel,
            "predicted_ms": self.predicted_ms,
            "observed_ms": self.observed_ms,
            "corrected_ms": self.corrected_ms,
            "q_error_before": self.q_error_before,
            "q_error_after": self.q_error_after,
        }


@dataclass
class DecisionPoint:
    """Planner decisions for one configuration, before and after."""

    n: int
    k: int
    baseline_choice: str
    replayed_choice: str
    calibrated_choice: str
    best_observed_kernel: str
    baseline_regret: float
    calibrated_regret: float

    @property
    def default_unchanged(self) -> bool:
        """calibrate=False must reproduce the original decision."""
        return self.replayed_choice == self.baseline_choice

    @property
    def calibrated_optimal(self) -> bool:
        """Corrections may only move decisions *toward* the observed
        optimum: the calibrated choice is either observed-optimal within
        tolerance, or carries no more observed regret than the
        uncalibrated choice did.  (A single multiplicative factor cannot
        repair an n-dependent miss — launch overhead at tiny n — so where
        the uncalibrated planner was already off, staying put is sound;
        getting *worse* is the drift this gate exists to catch.)"""
        return (
            self.calibrated_regret <= OPTIMALITY_TOLERANCE + 1e-9
            or self.calibrated_regret <= self.baseline_regret + 1e-9
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "baseline_choice": self.baseline_choice,
            "replayed_choice": self.replayed_choice,
            "calibrated_choice": self.calibrated_choice,
            "best_observed_kernel": self.best_observed_kernel,
            "baseline_regret": self.baseline_regret,
            "calibrated_regret": self.calibrated_regret,
            "default_unchanged": self.default_unchanged,
            "calibrated_optimal": self.calibrated_optimal,
        }


@dataclass
class CalibrationReport:
    """Everything the replay measured, plus the gates CI asserts."""

    workload: CalibrationWorkload
    device: str
    points: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    factors: dict = field(default_factory=dict)
    epoch: int = 0

    def kernel_names(self) -> list[str]:
        return sorted({point.kernel for point in self.points})

    def _q_errors(self, kernel: str | None, after: bool) -> list[float]:
        values = []
        for point in self.points:
            if kernel is not None and point.kernel != kernel:
                continue
            value = point.q_error_after if after else point.q_error_before
            if value is not None:
                values.append(value)
        return values

    def q_error_summary(self, kernel: str | None = None) -> dict:
        """p50 / p95 / max Q-error before and after, like the
        ``planner.q_error`` metric snapshot."""
        summary = {}
        for phase, after in (("before", False), ("after", True)):
            values = self._q_errors(kernel, after)
            summary[phase] = {
                "count": len(values),
                "p50": _quantile(values, 0.50),
                "p95": _quantile(values, 0.95),
                "max": _quantile(values, 1.00),
            }
        return summary

    # -- gates ------------------------------------------------------------

    @property
    def q_error_improves(self) -> bool:
        """Post-calibration p95 Q-error is no worse than pre, overall and
        for every fitted kernel."""
        overall = self.q_error_summary()
        if overall["after"]["p95"] is None or overall["before"]["p95"] is None:
            return False
        if overall["after"]["p95"] > overall["before"]["p95"] + 1e-9:
            return False
        for kernel in self.kernel_names():
            if kernel not in self.factors:
                continue  # below the minimum-sample floor: factor 1.0
            summary = self.q_error_summary(kernel)
            if summary["after"]["p95"] > summary["before"]["p95"] + 1e-9:
                return False
        return True

    @property
    def decisions_optimal(self) -> bool:
        return all(decision.calibrated_optimal for decision in self.decisions)

    @property
    def default_unchanged(self) -> bool:
        return all(decision.default_unchanged for decision in self.decisions)

    def gates(self) -> list[tuple[bool, str]]:
        return [
            (
                self.q_error_improves,
                "post-calibration p95 Q-error exceeds pre-calibration",
            ),
            (
                self.decisions_optimal,
                "a fitted correction drifted a planner decision away from "
                "the observed optimum",
            ),
            (
                self.default_unchanged,
                "replanning with calibrate=False did not reproduce the "
                "baseline decisions",
            ),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.gates())

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "device": self.device,
            "workload": self.workload.to_dict(),
            "factors": {name: self.factors[name] for name in sorted(self.factors)},
            "epoch": self.epoch,
            "q_error": {
                "overall": self.q_error_summary(),
                "by_kernel": {
                    kernel: self.q_error_summary(kernel)
                    for kernel in self.kernel_names()
                },
            },
            "points": [point.to_dict() for point in self.points],
            "decisions": [decision.to_dict() for decision in self.decisions],
            "q_error_improves": self.q_error_improves,
            "decisions_optimal": self.decisions_optimal,
            "default_unchanged": self.default_unchanged,
            "passed": self.passed,
        }

    def render(self) -> str:
        lines = []
        lines.append(
            f"calibration replay on {self.device} "
            f"(profile {self.workload.profile_name}, seed {self.workload.seed})"
        )
        lines.append(
            f"  {len(self.points)} samples over "
            f"{len(self.decisions)} configurations; store epoch {self.epoch}"
        )
        lines.append("")
        header = (
            f"  {'kernel':<14} {'samples':>7} {'factor':>8} "
            f"{'pre p50':>9} {'pre p95':>9} {'pre max':>9} "
            f"{'post p50':>9} {'post p95':>9} {'post max':>9}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for kernel in self.kernel_names():
            summary = self.q_error_summary(kernel)
            factor = self.factors.get(kernel)
            factor_cell = f"{factor:>8.3f}" if factor is not None else f"{'1.000*':>8}"
            lines.append(
                f"  {kernel:<14} {summary['before']['count']:>7} "
                f"{factor_cell} "
                f"{summary['before']['p50']:>9.2f} "
                f"{summary['before']['p95']:>9.2f} "
                f"{summary['before']['max']:>9.2f} "
                f"{summary['after']['p50']:>9.2f} "
                f"{summary['after']['p95']:>9.2f} "
                f"{summary['after']['max']:>9.2f}"
            )
        overall = self.q_error_summary()
        lines.append(
            f"  {'overall':<14} {overall['before']['count']:>7} {'':>8} "
            f"{overall['before']['p50']:>9.2f} "
            f"{overall['before']['p95']:>9.2f} "
            f"{overall['before']['max']:>9.2f} "
            f"{overall['after']['p50']:>9.2f} "
            f"{overall['after']['p95']:>9.2f} "
            f"{overall['after']['max']:>9.2f}"
        )
        lines.append("  (* below the minimum-sample floor; factor stays 1.0)")
        lines.append("")
        lines.append(
            f"  {'n':>8} {'k':>5} {'baseline':<14} {'calibrated':<14} "
            f"{'observed best':<14} {'regret':>7}"
        )
        for decision in self.decisions:
            marker = "" if decision.calibrated_optimal else "  !"
            lines.append(
                f"  {decision.n:>8} {decision.k:>5} "
                f"{decision.baseline_choice:<14} "
                f"{decision.calibrated_choice:<14} "
                f"{decision.best_observed_kernel:<14} "
                f"{decision.calibrated_regret:>6.1%}{marker}"
            )
        lines.append("")
        lines.append(
            f"  gates: q_error_improves={self.q_error_improves} "
            f"decisions_optimal={self.decisions_optimal} "
            f"default_unchanged={self.default_unchanged} "
            f"passed={self.passed}"
        )
        return "\n".join(lines)


def run_calibration_benchmark(
    workload: CalibrationWorkload | None = None,
    device: DeviceSpec | None = None,
    store: CalibrationStore | None = None,
) -> CalibrationReport:
    """Replay the grid, fit the store in place, and report the loop.

    ``store`` may carry samples from a previous run (``repro calibrate
    --load``); the replay's samples append to it and the refit sees both.
    """
    workload = workload or CalibrationWorkload()
    device = device or get_device()
    store = store or CalibrationStore()
    profile = get_profile(workload.profile_name)
    dtype = np.dtype(np.float32)

    from repro.core.planner import TopKPlanner

    planner = TopKPlanner(device)
    report = CalibrationReport(workload=workload, device=device.name)
    observed_by_config: dict[tuple[int, int], dict[str, float]] = {}
    plans = {}
    for n, k in workload.configs():
        data = workload.data(n)
        plan = planner.choose(n, k, dtype, profile)
        plans[(n, k)] = plan
        observed: dict[str, float] = {}
        for kernel, predicted_seconds in plan.candidates:
            try:
                result = topk(data, k, algorithm=kernel, device=device)
            except ResourceExhaustedError:
                # The model priced it, the implementation cannot run it
                # at this shape (occupancy limits): not a sample.
                continue
            observed_ms = result.simulated_ms(device)
            observed[kernel] = observed_ms
            point = CalibrationPoint(
                n=n,
                k=k,
                kernel=kernel,
                predicted_ms=predicted_seconds * 1e3,
                observed_ms=observed_ms,
            )
            report.points.append(point)
            record_sample(
                plan.fingerprint(),
                kernel,
                point.predicted_ms,
                point.observed_ms,
                store=store,
            )
        observed_by_config[(n, k)] = observed

    report.factors = store.refit()
    report.epoch = store.epoch

    for point in report.points:
        point.corrected_ms = store.correct(point.kernel, point.predicted_ms)

    replayed = TopKPlanner(device)  # calibrate=False: must not drift
    calibrated = TopKPlanner(device, calibration=store, calibrate=True)
    for n, k in workload.configs():
        observed = observed_by_config[(n, k)]
        if not observed:
            continue
        best_kernel = min(observed, key=lambda name: (observed[name], name))
        best_ms = observed[best_kernel]

        def regret(choice: str) -> float:
            if choice not in observed:
                # The chosen kernel never produced an observation (it
                # could not run at this shape): maximal regret.
                return float("inf")
            return observed[choice] / best_ms - 1.0

        baseline_choice = plans[(n, k)].algorithm
        replayed_choice = replayed.choose(n, k, dtype, profile).algorithm
        calibrated_choice = calibrated.choose(n, k, dtype, profile).algorithm
        report.decisions.append(
            DecisionPoint(
                n=n,
                k=k,
                baseline_choice=baseline_choice,
                replayed_choice=replayed_choice,
                calibrated_choice=calibrated_choice,
                best_observed_kernel=best_kernel,
                baseline_regret=regret(baseline_choice),
                calibrated_regret=regret(calibrated_choice),
            )
        )
    return report
