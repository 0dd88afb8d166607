"""The approximate top-k benchmark behind ``repro approx-bench``.

Sweeps a grid of ``(model n, k, buckets)`` points and, at every point,
runs the exact bitonic plan and the bucketed approximate operator on the
same functional payload, reporting:

* **simulated milliseconds** of both sides (the deterministic figure CI
  gates on; wall clock is never reported, let alone gated);
* the resulting **simulated speedup** (exact / approximate);
* the **analytic expected recall** of the configuration and the
  **measured recall** against the full-sort oracle.

The *headline point* — ``n = 2**24, k = 256`` with the planner's default
configuration — carries the paper-level claim: the report fails unless it
shows at least :data:`MIN_HEADLINE_SPEEDUP` simulated speedup with
measured recall at least :data:`MIN_HEADLINE_RECALL`.  CI additionally
gates every point's simulated times and measured recall against the
committed ``benchmarks/baselines/BENCH_approx.json`` through the one
baseline checker, :func:`repro.bench.common.check_baseline`, over
:attr:`ApproxBenchReport.BASELINE_GATES`.

Functional arrays are capped at ``functional_cap`` elements (recall is
insensitive to n once n >> candidates, and the trace models the full
``model n`` regardless), so the sweep stays fast enough for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import reference_topk
from repro.bitonic.topk import BitonicTopK
from repro.approx.bucketed import ApproxBucketTopK
from repro.approx.config import ApproxConfig, default_config
from repro.approx.recall import expected_recall, measured_recall
from repro.bench.common import Gate
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import trace_time

#: JSON schema tag of a serialized report.
REPORT_FORMAT = "repro-approx-bench"
REPORT_VERSION = 1

#: Absolute slack when gating recalls against a baseline (recall is
#: deterministic per seed, but the slack keeps the gate robust to numpy
#: version differences in the generator stream).
RECALL_TOLERANCE = 0.005

#: The acceptance gate at the headline point (n = 2**24, k = 256, default
#: configuration): simulated speedup over the exact bitonic plan and the
#: measured-recall floor it must hold at the same time.
MIN_HEADLINE_SPEEDUP = 2.0
MIN_HEADLINE_RECALL = 0.99

#: ``buckets`` sentinel meaning "the planner's default configuration".
DEFAULT_BUCKETS = 0

HEADLINE_N = 1 << 24
HEADLINE_K = 256


@dataclass
class ApproxWorkload:
    """The sweep grid: every combination of ``ns`` x ``ks`` x ``buckets``.

    A ``buckets`` entry of :data:`DEFAULT_BUCKETS` (0) means "whatever
    :func:`~repro.approx.config.default_config` picks for the shape" — the
    configuration the planner would use, and the one the headline gate
    reads.  The headline point must be part of the grid.
    """

    ns: tuple = (1 << 20, HEADLINE_N)
    ks: tuple = (64, HEADLINE_K)
    buckets: tuple = (DEFAULT_BUCKETS, 16, 64)
    functional_cap: int = 1 << 18
    seed: int = 0

    def __post_init__(self) -> None:
        self.ns = tuple(int(n) for n in self.ns)
        self.ks = tuple(int(k) for k in self.ks)
        self.buckets = tuple(int(b) for b in self.buckets)
        if not self.ns or not self.ks or not self.buckets:
            raise InvalidParameterError(
                "the sweep needs at least one n, one k, and one bucket count"
            )
        if min(self.ns) < 1 or min(self.ks) < 1:
            raise InvalidParameterError(
                f"invalid sweep shape: ns = {self.ns}, ks = {self.ks}"
            )
        if min(self.buckets) < 0:
            raise InvalidParameterError(
                f"bucket counts cannot be negative, got {self.buckets}"
            )
        if self.functional_cap < max(self.ks):
            raise InvalidParameterError(
                f"functional_cap {self.functional_cap} is smaller than the "
                f"largest k {max(self.ks)}"
            )

    def points(self) -> list[tuple[int, int, int]]:
        """The grid in deterministic row-major order, invalid shapes
        (k > n) skipped."""
        return [
            (n, k, b)
            for n in self.ns
            for k in self.ks
            for b in self.buckets
            if k <= n
        ]

    def to_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "ks": list(self.ks),
            "buckets": list(self.buckets),
            "functional_cap": self.functional_cap,
            "seed": self.seed,
        }


@dataclass
class SweepPoint:
    """Both sides of one ``(model n, k, buckets)`` grid point."""

    model_n: int
    k: int
    #: The *requested* bucket count (0 = planner default) — the grid key.
    requested_buckets: int
    #: The resolved configuration actually run.
    buckets: int
    khat: int
    exact_ms: float
    approx_ms: float
    expected: float
    measured: float
    global_bytes_saved: float = 0.0

    @property
    def speedup(self) -> float:
        return self.exact_ms / self.approx_ms if self.approx_ms > 0 else float("inf")

    @property
    def is_headline(self) -> bool:
        return (
            self.model_n == HEADLINE_N
            and self.k == HEADLINE_K
            and self.requested_buckets == DEFAULT_BUCKETS
        )

    def to_dict(self) -> dict:
        return {
            "model_n": self.model_n,
            "k": self.k,
            "requested_buckets": self.requested_buckets,
            "buckets": self.buckets,
            "khat": self.khat,
            "exact_ms": self.exact_ms,
            "approx_ms": self.approx_ms,
            "speedup": self.speedup,
            "expected_recall": self.expected,
            "measured_recall": self.measured,
            "global_bytes_saved": self.global_bytes_saved,
        }


@dataclass
class ApproxBenchReport:
    """The sweep's results plus the headline acceptance verdict."""

    workload: ApproxWorkload
    device: str
    points: list = field(default_factory=list)

    #: What a committed baseline holds: each point's exact and
    #: approximate simulated ms, and its measured recall (which may not
    #: fall more than :data:`RECALL_TOLERANCE` below the baseline's).
    BASELINE_GATES = (
        Gate("points[model_n,k,requested_buckets].exact_ms"),
        Gate("points[model_n,k,requested_buckets].approx_ms"),
        Gate(
            "points[model_n,k,requested_buckets].measured_recall",
            "floor",
            RECALL_TOLERANCE,
        ),
    )

    @property
    def headline(self) -> SweepPoint | None:
        for point in self.points:
            if point.is_headline:
                return point
        return None

    def gates(self) -> list[tuple[bool, str]]:
        """The paper-level claim: >= 2x simulated speedup at recall >= 0.99
        on the headline shape; a sweep without the headline gates nothing."""
        head = self.headline
        return [
            (
                head is None
                or (
                    head.speedup >= MIN_HEADLINE_SPEEDUP
                    and head.measured >= MIN_HEADLINE_RECALL
                ),
                "the headline speedup/recall gate failed",
            ),
        ]

    @property
    def passed(self) -> bool:
        """The sweep carries the headline and its gate holds."""
        return self.headline is not None and all(ok for ok, _ in self.gates())

    def to_dict(self) -> dict:
        head = self.headline
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "workload": self.workload.to_dict(),
            "device": self.device,
            "points": [point.to_dict() for point in self.points],
            "headline": head.to_dict() if head is not None else None,
            "gates": {
                "min_speedup": MIN_HEADLINE_SPEEDUP,
                "min_recall": MIN_HEADLINE_RECALL,
            },
            "passed": self.passed,
        }

    def render(self) -> str:
        lines = [
            f"device       : {self.device}",
            f"sweep        : ns = {list(self.workload.ns)}, "
            f"ks = {list(self.workload.ks)}, "
            f"buckets = {list(self.workload.buckets)} (0 = default), "
            f"seed = {self.workload.seed}",
            "",
            f"{'model n':>11} {'k':>5} {'b':>5} {'khat':>5} "
            f"{'exact ms':>9} {'approx ms':>10} {'speedup':>8} "
            f"{'E[recall]':>10} {'measured':>9}",
        ]
        for point in self.points:
            marker = " *" if point.is_headline else ""
            lines.append(
                f"{point.model_n:>11} {point.k:>5} {point.buckets:>5} "
                f"{point.khat:>5} {point.exact_ms:>9.4f} "
                f"{point.approx_ms:>10.4f} {point.speedup:>7.2f}x "
                f"{point.expected:>10.6f} {point.measured:>9.6f}{marker}"
            )
        head = self.headline
        lines.append("")
        if head is None:
            lines.append(
                "headline     : MISSING — the sweep does not include "
                f"n = {HEADLINE_N}, k = {HEADLINE_K} with default buckets"
            )
        else:
            verdict = "PASS" if self.passed else "FAIL"
            lines.append(
                f"headline (*) : {head.speedup:.2f}x simulated speedup at "
                f"measured recall {head.measured:.4f} "
                f"(gate: >= {MIN_HEADLINE_SPEEDUP:.1f}x and "
                f">= {MIN_HEADLINE_RECALL:.2f}) -> {verdict}"
            )
        return "\n".join(lines)


def _point_data(
    workload: ApproxWorkload, model_n: int, k: int, buckets: int
) -> np.ndarray:
    """The functional payload of one grid point.

    Seeded by the full point coordinates, so each point's recall is
    reproducible in isolation — rerunning a sub-grid reproduces the full
    sweep's numbers exactly.
    """
    rng = np.random.default_rng([workload.seed, model_n, k, buckets])
    functional_n = min(model_n, workload.functional_cap)
    return rng.random(functional_n, dtype=np.float32)


def _run_point(
    workload: ApproxWorkload,
    device: DeviceSpec,
    model_n: int,
    k: int,
    requested_buckets: int,
) -> SweepPoint:
    data = _point_data(workload, model_n, k, requested_buckets)
    config = (
        default_config(model_n, k)
        if requested_buckets == DEFAULT_BUCKETS
        else ApproxConfig(buckets=min(requested_buckets, model_n))
    )
    exact = BitonicTopK(device).run(data, k, model_n=model_n)
    approx = ApproxBucketTopK(device, config=config).run(data, k, model_n=model_n)
    oracle_values, _ = reference_topk(data, k)
    return SweepPoint(
        model_n=model_n,
        k=k,
        requested_buckets=requested_buckets,
        buckets=config.buckets,
        khat=config.khat(k),
        exact_ms=trace_time(exact.trace, device).total_ms,
        approx_ms=trace_time(approx.trace, device).total_ms,
        expected=expected_recall(model_n, k, config),
        measured=measured_recall(approx.values, oracle_values),
        global_bytes_saved=approx.trace.notes.get(
            "approx.global_bytes_saved", 0.0
        ),
    )


def run_approx_benchmark(
    workload: ApproxWorkload | None = None,
    device: DeviceSpec | None = None,
) -> ApproxBenchReport:
    """Run the full sweep and assemble the report."""
    workload = workload or ApproxWorkload()
    device = device or get_device()
    report = ApproxBenchReport(workload=workload, device=device.name)
    for model_n, k, buckets in workload.points():
        report.points.append(
            _run_point(workload, device, model_n, k, buckets)
        )
    return report
