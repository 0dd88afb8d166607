"""The radix-family benchmark behind ``repro radix-bench``.

Two sweeps, one report:

* **The k sweep** runs one fixed ``model n`` workload at every k in the
  grid through the RadiK-style adaptive kernel
  (:class:`~repro.algorithms.radik.RadiKTopK`), the paper's 2018 radix
  strawman (``radix-select``), and the bitonic network, reporting each
  point's **simulated milliseconds** — the deterministic figure CI gates
  on (wall clock is never reported, let alone gated) — plus bit-equality
  of the radix results against the canonical reference order.

* **The batch sweep** fuses a ``[batch, n]`` matrix through
  :func:`~repro.algorithms.radik.batched_radik_topk` at every batch size
  in the grid and compares against serving the same rows one query at a
  time — the launch-amortization claim of the batched operator.

The acceptance gates mirror the issue's criteria:

* every radix result (single and batched) is **bit-equal** to the
  reference order, values *and* indices;
* the **monotonic large-k gate**: RadiK's speedup over the bitonic
  network is **non-decreasing in k** across the sweep (bitonic's cost
  grows steeply with the network width while the radix passes are
  nearly k-independent — the paper's Figure 11 shape), RadiK is **no
  slower than the strawman** at every k >= :data:`GATE_LARGE_K`, and it
  **overtakes bitonic** by the largest gated k — the crossover that
  motivates planning radix at large k in the first place;
* the fused batch **beats per-query execution at every batch >= 2**.

CI additionally gates the k sweep's RadiK and strawman milliseconds and
the batch sweep's fused milliseconds against the committed
``benchmarks/baselines/BENCH_radix.json`` through the one baseline
checker, :func:`repro.bench.common.check_baseline`, over
:attr:`RadixBenchReport.BASELINE_GATES`.

Functional arrays are capped at ``functional_cap`` elements (exactness
is checked on the functional payload; the trace models the full
``model n`` via the measured per-pass survivor fractions), so the sweep
stays fast enough for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import reference_topk
from repro.algorithms.radik import RadiKTopK, batched_radik_topk
from repro.core.topk import topk
from repro.errors import InvalidParameterError, ResourceExhaustedError
from repro.gpu.device import DeviceSpec, get_device
from repro.bench.common import Gate
from repro.gpu.timing import trace_time

#: JSON schema tag of a serialized report.
REPORT_FORMAT = "repro-radix-bench"
REPORT_VERSION = 1

#: The k from which the large-k gate applies: RadiK must be no slower
#: than the strawman, with non-decreasing speedup, at every gated k.
GATE_LARGE_K = 1024


@dataclass
class RadixWorkload:
    """The two sweep grids: k at fixed ``model n``, and batch at fixed
    ``(batch_n, batch_k)``."""

    model_n: int = 1 << 26
    ks: tuple = (64, 256, 1024, 2048)
    functional_cap: int = 1 << 18
    batch_sizes: tuple = (1, 2, 4, 8)
    batch_n: int = 2048
    batch_k: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        self.model_n = int(self.model_n)
        self.ks = tuple(int(k) for k in self.ks)
        self.functional_cap = int(self.functional_cap)
        self.batch_sizes = tuple(int(b) for b in self.batch_sizes)
        self.batch_n = int(self.batch_n)
        self.batch_k = int(self.batch_k)
        if self.model_n < 1:
            raise InvalidParameterError(
                f"invalid workload: model_n = {self.model_n}"
            )
        if not self.ks:
            raise InvalidParameterError("the k sweep needs at least one k")
        if list(self.ks) != sorted(set(self.ks)):
            raise InvalidParameterError(
                f"k grid must be strictly increasing, got {self.ks}"
            )
        functional_n = min(self.model_n, self.functional_cap)
        if min(self.ks) < 1 or max(self.ks) > functional_n:
            raise InvalidParameterError(
                f"every k must be in [1, {functional_n}], got {self.ks}"
            )
        if not self.batch_sizes:
            raise InvalidParameterError(
                "the batch sweep needs at least one batch size"
            )
        if list(self.batch_sizes) != sorted(set(self.batch_sizes)):
            raise InvalidParameterError(
                f"batch sizes must be strictly increasing, "
                f"got {self.batch_sizes}"
            )
        if min(self.batch_sizes) < 1:
            raise InvalidParameterError(
                f"batch sizes must be positive, got {self.batch_sizes}"
            )
        if not 1 <= self.batch_k <= self.batch_n:
            raise InvalidParameterError(
                f"batch_k = {self.batch_k} must be in [1, {self.batch_n}]"
            )

    def data(self) -> np.ndarray:
        """The k sweep's functional payload, seeded by the workload
        coordinates so a re-run reproduces the curve exactly."""
        rng = np.random.default_rng([self.seed, self.model_n])
        functional_n = min(self.model_n, self.functional_cap)
        return rng.random(functional_n, dtype=np.float32)

    def batch_data(self, batch: int) -> np.ndarray:
        """One batch sweep payload of ``batch`` rows."""
        rng = np.random.default_rng([self.seed, self.batch_n, batch])
        return rng.random((batch, self.batch_n), dtype=np.float32)

    def to_dict(self) -> dict:
        return {
            "model_n": self.model_n,
            "ks": list(self.ks),
            "functional_cap": self.functional_cap,
            "batch_sizes": list(self.batch_sizes),
            "batch_n": self.batch_n,
            "batch_k": self.batch_k,
            "seed": self.seed,
        }


@dataclass
class RadixPoint:
    """One k's measurement: the three kernels side by side."""

    k: int
    radik_ms: float
    strawman_ms: float
    bitonic_ms: float | None
    #: RadiK's adaptive pass count (from the trace notes).
    passes: int
    #: Bit-equality of both radix results (values and indices) against
    #: the canonical reference order.
    identical: bool

    @property
    def speedup_vs_strawman(self) -> float:
        if self.radik_ms <= 0:
            return float("inf")
        return self.strawman_ms / self.radik_ms

    @property
    def speedup_vs_bitonic(self) -> float | None:
        if self.bitonic_ms is None:
            return None
        if self.radik_ms <= 0:
            return float("inf")
        return self.bitonic_ms / self.radik_ms

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "radik_ms": self.radik_ms,
            "strawman_ms": self.strawman_ms,
            "bitonic_ms": self.bitonic_ms,
            "passes": self.passes,
            "speedup_vs_strawman": self.speedup_vs_strawman,
            "speedup_vs_bitonic": self.speedup_vs_bitonic,
            "identical": self.identical,
        }


@dataclass
class BatchPoint:
    """One batch size's measurement: fused vs per-query execution."""

    batch: int
    batched_ms: float
    per_query_ms: float
    identical: bool

    @property
    def speedup(self) -> float:
        if self.batched_ms <= 0:
            return float("inf")
        return self.per_query_ms / self.batched_ms

    def to_dict(self) -> dict:
        return {
            "batch": self.batch,
            "batched_ms": self.batched_ms,
            "per_query_ms": self.per_query_ms,
            "speedup": self.speedup,
            "identical": self.identical,
        }


@dataclass
class RadixBenchReport:
    """Both sweeps plus the three gate verdicts."""

    workload: RadixWorkload
    device: str
    points: list = field(default_factory=list)
    batch_points: list = field(default_factory=list)

    #: What a committed baseline holds: RadiK's and the strawman's
    #: simulated ms at every k, and the fused launch's at every batch.
    BASELINE_GATES = (
        Gate("points[k].radik_ms"),
        Gate("points[k].strawman_ms"),
        Gate("batch_points[batch].batched_ms"),
    )

    @property
    def identical(self) -> bool:
        """Every radix result bit-equal to the reference order."""
        return all(p.identical for p in self.points) and all(
            p.identical for p in self.batch_points
        )

    def gated_points(self) -> list:
        """The large-k suffix of the k sweep the monotonic gate covers."""
        return [p for p in self.points if p.k >= GATE_LARGE_K]

    @property
    def large_k_monotonic(self) -> bool:
        """The monotonic large-k verdict: RadiK's speedup over bitonic
        never shrinks as k grows, RadiK beats the strawman at every
        gated k, and it has overtaken bitonic by the largest gated k."""
        gated = self.gated_points()
        if any(p.radik_ms > p.strawman_ms for p in gated):
            return False
        if gated and gated[-1].bitonic_ms is not None:
            if gated[-1].radik_ms > gated[-1].bitonic_ms:
                return False
        speedups = [
            p.speedup_vs_bitonic
            for p in self.points
            if p.speedup_vs_bitonic is not None
        ]
        return all(
            later >= earlier for earlier, later in zip(speedups, speedups[1:])
        )

    @property
    def batch_amortizes(self) -> bool:
        """The fused launch beats per-query execution at every batch >= 2."""
        return all(
            p.batched_ms < p.per_query_ms
            for p in self.batch_points
            if p.batch >= 2
        )

    def gates(self) -> list[tuple[bool, str]]:
        return [
            (
                self.identical,
                "a radix result is not bit-equal to the reference order",
            ),
            (
                self.large_k_monotonic,
                "the monotonic large-k gate failed (speedup over bitonic "
                "shrank with k, or radik lost a gated point)",
            ),
            (
                self.batch_amortizes,
                "the fused batch did not beat per-query execution at every "
                "batch >= 2",
            ),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.gates())

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "workload": self.workload.to_dict(),
            "device": self.device,
            "points": [p.to_dict() for p in self.points],
            "batch_points": [p.to_dict() for p in self.batch_points],
            "gates": {
                "large_k_from": GATE_LARGE_K,
                "identical": True,
                "batch_amortizes": True,
            },
            "identical": self.identical,
            "large_k_monotonic": self.large_k_monotonic,
            "batch_amortizes": self.batch_amortizes,
            "passed": self.passed,
        }

    def render(self) -> str:
        lines = [
            f"device       : {self.device}",
            f"k sweep      : model n = {self.workload.model_n}, "
            f"float32 uniform, seed = {self.workload.seed}",
            "",
            f"{'k':>6} {'radik ms':>10} {'strawman ms':>12} "
            f"{'bitonic ms':>11} {'vs straw':>9} {'vs biton':>9} "
            f"{'passes':>7} {'exact':>6}",
        ]
        for point in self.points:
            gated = " *" if point.k >= GATE_LARGE_K else ""
            bitonic = (
                f"{point.bitonic_ms:>11.4f}"
                if point.bitonic_ms is not None
                else f"{'-':>11}"
            )
            vs_bitonic = (
                f"{point.speedup_vs_bitonic:>8.2f}x"
                if point.speedup_vs_bitonic is not None
                else f"{'-':>9}"
            )
            lines.append(
                f"{point.k:>6} {point.radik_ms:>10.4f} "
                f"{point.strawman_ms:>12.4f} {bitonic} "
                f"{point.speedup_vs_strawman:>8.2f}x {vs_bitonic} "
                f"{point.passes:>7} "
                f"{'yes' if point.identical else 'NO':>6}{gated}"
            )
        lines.extend(
            [
                "",
                f"batch sweep  : n = {self.workload.batch_n}, "
                f"k = {self.workload.batch_k}",
                "",
                f"{'batch':>6} {'batched ms':>11} {'per-query ms':>13} "
                f"{'speedup':>8} {'exact':>6}",
            ]
        )
        for point in self.batch_points:
            lines.append(
                f"{point.batch:>6} {point.batched_ms:>11.4f} "
                f"{point.per_query_ms:>13.4f} {point.speedup:>7.2f}x "
                f"{'yes' if point.identical else 'NO':>6}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append("")
        lines.append(
            f"gates        : bit-equal everywhere; speedup over bitonic "
            f"non-decreasing in k, radik no slower than the strawman at "
            f"k >= {GATE_LARGE_K} (*) and past bitonic by the top gated k; "
            f"the fused batch beats per-query at every batch >= 2 -> {verdict}"
        )
        return "\n".join(lines)


def _reference_rows(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row canonical reference of a [batch, n] matrix."""
    values = np.empty((matrix.shape[0], k), dtype=matrix.dtype)
    indices = np.empty((matrix.shape[0], k), dtype=np.int64)
    for row in range(matrix.shape[0]):
        values[row], indices[row] = reference_topk(matrix[row], k)
    return values, indices


def run_radix_benchmark(
    workload: RadixWorkload | None = None,
    device: DeviceSpec | None = None,
) -> RadixBenchReport:
    """Run both sweeps and assemble the report."""
    workload = workload or RadixWorkload()
    device = device or get_device()
    report = RadixBenchReport(workload=workload, device=device.name)

    data = workload.data()
    for k in workload.ks:
        oracle_values, oracle_indices = reference_topk(data, k)
        radik = topk(
            data, k, algorithm="radik", device=device, model_n=workload.model_n
        )
        strawman = topk(
            data,
            k,
            algorithm="radix-select",
            device=device,
            model_n=workload.model_n,
        )
        bitonic_ms = None
        try:
            bitonic = topk(
                data,
                k,
                algorithm="bitonic",
                device=device,
                model_n=workload.model_n,
            )
            bitonic_ms = bitonic.simulated_ms(device)
        except (InvalidParameterError, ResourceExhaustedError):
            pass  # past the network's supported k — reported as "-"
        identical = all(
            np.array_equal(result.values, oracle_values, equal_nan=True)
            and np.array_equal(result.indices, oracle_indices)
            for result in (radik, strawman)
        )
        report.points.append(
            RadixPoint(
                k=k,
                radik_ms=radik.simulated_ms(device),
                strawman_ms=strawman.simulated_ms(device),
                bitonic_ms=bitonic_ms,
                passes=int(radik.trace.notes.get("passes", 0)),
                identical=identical,
            )
        )

    single = RadiKTopK(device)
    for batch in workload.batch_sizes:
        matrix = workload.batch_data(batch)
        oracle_values, oracle_indices = _reference_rows(matrix, workload.batch_k)
        fused = batched_radik_topk(matrix, workload.batch_k, device=device)
        per_query_ms = sum(
            single.run(matrix[row], workload.batch_k).simulated_ms(device)
            for row in range(batch)
        )
        report.batch_points.append(
            BatchPoint(
                batch=batch,
                batched_ms=trace_time(fused.trace, device).total_ms,
                per_query_ms=per_query_ms,
                identical=bool(
                    np.array_equal(fused.values, oracle_values, equal_nan=True)
                    and np.array_equal(fused.indices, oracle_indices)
                ),
            )
        )
    return report
