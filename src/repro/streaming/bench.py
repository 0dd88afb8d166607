"""The streaming benchmark behind ``repro stream-bench``.

Drives one seeded tweet stream through both maintenance arms of each
streaming semantics and reports, per arm:

* **bit-equality on every tick** — the incremental maintainer (summary
  ring for the sliding window, carried candidate set for decay) must
  produce, tick for tick, exactly the answer of recomputing from the
  raw live rows: same values/scores bit pattern, same global row ids,
  across warm-up, steady state, and window evictions;
* **simulated milliseconds** — the steady-state per-tick maintenance
  cost under the Section 7 timing model, the deterministic figure CI
  gates on;
* the **incremental speedup** — recompute-per-tick over incremental at
  steady state, which must clear :data:`GATE_SPEEDUP` at the headline
  configuration (window 2^24 rows as 16 chunks of 2^20, k 64: the cost
  model predicts ~window/chunk, so 2x has generous margin).

Like the sharding bench, functional scale and model scale are decoupled:
bit-equality runs the real maintainers over small seeded chunks
(``chunk_rows``), while the simulated tick costs are priced at the
headline ``model_chunk_rows`` — big enough that memory traffic, not
kernel-launch overhead, dominates each tick.

CI gates each arm's total simulated milliseconds and the measured
speedup against the committed
``benchmarks/baselines/BENCH_streaming.json`` through the one baseline
checker, :func:`repro.bench.common.check_baseline`, over
:attr:`StreamBenchReport.BASELINE_GATES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.common import Gate
from repro.costmodel.streaming_model import StreamingModel
from repro.data.stream import stream_chunk
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import trace_time
from repro.streaming.window import DecayedTopK, StreamChunk, WindowTopK

#: JSON schema tag of a serialized report.
REPORT_FORMAT = "repro-streaming-bench"
REPORT_VERSION = 1

#: The headline gate: incremental maintenance must be at least this much
#: faster (simulated) than recompute-per-tick on the window workload.
GATE_SPEEDUP = 2.0


@dataclass
class StreamWorkload:
    """One seeded stream driven through every maintenance arm.

    ``chunk_rows`` is the *functional* chunk size the equality oracle
    maintains; ``model_chunk_rows`` is the *modeled* chunk size the
    simulated tick costs are priced at (the window at model scale is
    ``window_chunks * model_chunk_rows`` rows).
    """

    k: int = 64
    chunk_rows: int = 1 << 12
    model_chunk_rows: int = 1 << 20
    window_chunks: int = 16
    ticks: int = 48
    decay: float = 0.9
    shards: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        self.k = int(self.k)
        self.chunk_rows = int(self.chunk_rows)
        self.model_chunk_rows = int(self.model_chunk_rows)
        self.window_chunks = int(self.window_chunks)
        self.ticks = int(self.ticks)
        self.shards = int(self.shards)
        if self.k < 1 or self.chunk_rows < 1:
            raise InvalidParameterError(
                f"invalid workload shape: k = {self.k}, "
                f"chunk_rows = {self.chunk_rows}"
            )
        if self.k > self.chunk_rows:
            raise InvalidParameterError(
                f"k = {self.k} exceeds chunk_rows = {self.chunk_rows}"
            )
        if self.model_chunk_rows < self.chunk_rows:
            raise InvalidParameterError(
                f"model_chunk_rows ({self.model_chunk_rows}) must be at "
                f"least the functional chunk_rows ({self.chunk_rows})"
            )
        if self.window_chunks < 1:
            raise InvalidParameterError(
                f"window_chunks must be at least 1, got {self.window_chunks}"
            )
        if self.ticks < self.window_chunks:
            raise InvalidParameterError(
                f"ticks ({self.ticks}) must cover at least one full window "
                f"({self.window_chunks} chunks) so evictions are exercised"
            )
        if not 0.0 < self.decay <= 1.0:
            raise InvalidParameterError(
                f"decay must be in (0, 1], got {self.decay}"
            )
        if self.shards < 1:
            raise InvalidParameterError(
                f"shards must be at least 1, got {self.shards}"
            )

    @property
    def window(self) -> int:
        """Functional window length in rows."""
        return self.window_chunks * self.chunk_rows

    @property
    def model_window(self) -> int:
        """Modeled window length in rows (the priced configuration)."""
        return self.window_chunks * self.model_chunk_rows

    def chunks(self) -> list[StreamChunk]:
        """The stream's first ``ticks`` chunks (score + global row id)."""
        out = []
        for tick in range(self.ticks):
            chunk = stream_chunk(tick, self.chunk_rows, self.seed)
            out.append(
                StreamChunk(values=chunk["score"], gids=chunk["id"])
            )
        return out

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "chunk_rows": self.chunk_rows,
            "model_chunk_rows": self.model_chunk_rows,
            "window_chunks": self.window_chunks,
            "ticks": self.ticks,
            "decay": self.decay,
            "shards": self.shards,
            "seed": self.seed,
        }


@dataclass
class StreamPoint:
    """One maintenance arm's measurement over the full stream."""

    #: "window-incremental", "window-recompute", or "decay-incremental"
    #: (decay recompute is the functional equality oracle only — its
    #: per-tick cost is unbounded, so it is never a priced arm).
    arm: str
    ticks: int
    total_simulated_ms: float
    mean_tick_ms: float
    #: Bit-equality against the recompute oracle on every tick.
    identical: bool

    def to_dict(self) -> dict:
        return {
            "arm": self.arm,
            "ticks": self.ticks,
            "total_simulated_ms": self.total_simulated_ms,
            "mean_tick_ms": self.mean_tick_ms,
            "identical": self.identical,
        }


@dataclass
class StreamBenchReport:
    """Both semantics' arms plus the equality and speedup verdicts."""

    workload: StreamWorkload
    device: str
    points: list = field(default_factory=list)
    #: The cost model's predicted incremental speedup (context for the
    #: measured number; not gated).
    predicted_speedup: float = 0.0

    #: What a committed baseline holds: each arm's total simulated ms
    #: and the measured incremental speedup.
    BASELINE_GATES = (
        Gate("points[arm].total_simulated_ms"),
        Gate("measured_speedup"),
    )

    def point(self, arm: str) -> StreamPoint | None:
        for point in self.points:
            if point.arm == arm:
                return point
        return None

    @property
    def identical(self) -> bool:
        """Every arm bit-equal to its recompute oracle on every tick."""
        return bool(self.points) and all(
            point.identical for point in self.points
        )

    @property
    def measured_speedup(self) -> float:
        """Recompute-per-tick over incremental, simulated, window arm."""
        incremental = self.point("window-incremental")
        recompute = self.point("window-recompute")
        if incremental is None or recompute is None:
            return 0.0
        if incremental.total_simulated_ms <= 0:
            return float("inf")
        return recompute.total_simulated_ms / incremental.total_simulated_ms

    @property
    def fast_enough(self) -> bool:
        return self.measured_speedup >= GATE_SPEEDUP

    def gates(self) -> list[tuple[bool, str]]:
        return [
            (
                self.identical,
                "an incremental answer is not bit-equal to its recompute "
                "oracle",
            ),
            (
                self.fast_enough,
                f"incremental speedup {self.measured_speedup:.2f}x is "
                f"below the {GATE_SPEEDUP:.1f}x gate",
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
            "points": [point.to_dict() for point in self.points],
            "predicted_speedup": self.predicted_speedup,
            "measured_speedup": self.measured_speedup,
            "gates": {
                "speedup_at_least": GATE_SPEEDUP,
                "identical": True,
            },
            "identical": self.identical,
            "fast_enough": self.fast_enough,
            "passed": self.passed,
        }

    def render(self) -> str:
        w = self.workload
        lines = [
            f"device       : {self.device}",
            f"workload     : model window = {w.model_window} rows "
            f"({w.window_chunks} x {w.model_chunk_rows}), k = {w.k}, "
            f"ticks = {w.ticks}, decay = {w.decay}, shards = {w.shards}, "
            f"functional chunk = {w.chunk_rows}, seed = {w.seed}",
            "",
            f"{'arm':>20} {'ticks':>6} {'total ms':>10} {'ms/tick':>9} "
            f"{'exact':>6}",
        ]
        for point in self.points:
            lines.append(
                f"{point.arm:>20} {point.ticks:>6} "
                f"{point.total_simulated_ms:>10.4f} "
                f"{point.mean_tick_ms:>9.4f} "
                f"{'yes' if point.identical else 'NO':>6}"
            )
        lines.append("")
        lines.append(
            f"speedup      : {self.measured_speedup:6.2f}x measured "
            f"(model predicts {self.predicted_speedup:.2f}x), "
            f"gate >= {GATE_SPEEDUP:.1f}x"
        )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"gate         : bit-equal on every tick and incremental "
            f">= {GATE_SPEEDUP:.1f}x faster -> {verdict}"
        )
        return "\n".join(lines)


def _equal(
    left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray]
) -> bool:
    return bool(
        np.array_equal(left[0], right[0], equal_nan=True)
        and np.array_equal(left[1], right[1])
    )


def _window_equal(
    workload: StreamWorkload,
    device: DeviceSpec,
    chunks: list[StreamChunk],
) -> bool:
    """Tick-for-tick bit-equality of the window arms at functional scale."""
    incremental = WindowTopK(
        workload.k, workload.window_chunks, workload.chunk_rows,
        device=device, shards=workload.shards, mode="incremental",
    )
    recompute = WindowTopK(
        workload.k, workload.window_chunks, workload.chunk_rows,
        device=device, shards=workload.shards, mode="recompute",
    )
    incremental.open()
    recompute.open()
    equal = True
    for chunk in chunks:
        incremental.advance(chunk)
        recompute.advance(chunk)
        if not _equal(incremental.emit(), recompute.emit()):
            equal = False
    incremental.close()
    recompute.close()
    return equal


def _decay_equal(
    workload: StreamWorkload,
    device: DeviceSpec,
    chunks: list[StreamChunk],
) -> bool:
    """Tick-for-tick bit-equality of the decay arms at functional scale."""
    decayed = DecayedTopK(
        workload.k, workload.decay, device=device,
        shards=workload.shards, mode="incremental",
    )
    oracle = DecayedTopK(
        workload.k, workload.decay, device=device,
        shards=workload.shards, mode="recompute",
    )
    decayed.open()
    oracle.open()
    equal = True
    for chunk in chunks:
        decayed.advance(chunk)
        oracle.advance(chunk)
        if not _equal(decayed.emit(), oracle.emit()):
            equal = False
    decayed.close()
    oracle.close()
    return equal


def run_streaming_benchmark(
    workload: StreamWorkload | None = None,
    device: DeviceSpec | None = None,
) -> StreamBenchReport:
    """Run every maintenance arm over the stream and assemble the report.

    Equality drives the real maintainers over the seeded functional
    chunks; costs are the steady-state tick traces priced at
    ``model_chunk_rows`` (a full window of live summaries), multiplied
    out over the stream's ticks.
    """
    workload = workload or StreamWorkload()
    device = device or get_device()
    chunks = workload.chunks()
    report = StreamBenchReport(workload=workload, device=device.name)
    report.predicted_speedup = StreamingModel(
        device, workload.model_chunk_rows
    ).speedup(workload.model_window, workload.model_chunk_rows, workload.k)

    # -- sliding window: incremental vs recompute ------------------------
    window_equal = _window_equal(workload, device, chunks)
    for arm_mode in ("incremental", "recompute"):
        pricing = WindowTopK(
            workload.k, workload.window_chunks, workload.model_chunk_rows,
            device=device, shards=workload.shards, mode=arm_mode,
        )
        tick_ms = trace_time(
            pricing.tick_trace(live=workload.window_chunks), device
        ).total_ms
        report.points.append(
            StreamPoint(
                arm=f"window-{arm_mode}",
                ticks=workload.ticks,
                total_simulated_ms=tick_ms * workload.ticks,
                mean_tick_ms=tick_ms,
                identical=window_equal,
            )
        )

    # -- decay: incremental vs the functional recompute oracle -----------
    decay_equal = _decay_equal(workload, device, chunks)
    pricing = DecayedTopK(
        workload.k, workload.decay, device=device, shards=workload.shards
    )
    tick_ms = trace_time(
        pricing.tick_trace(workload.model_chunk_rows), device
    ).total_ms
    report.points.append(
        StreamPoint(
            arm="decay-incremental",
            ticks=workload.ticks,
            total_simulated_ms=tick_ms * workload.ticks,
            mean_tick_ms=tick_ms,
            identical=decay_equal,
        )
    )
    return report
