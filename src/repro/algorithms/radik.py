"""RadiK-style radix top-k: adaptive passes, buffered writes, batching.

The paper's radix select (:mod:`repro.algorithms.radix_select`) is the
2018 strawman: fixed 8-bit digits and a full cluster write on every
reducing pass.  RadiK (PAPERS.md: "RadiK: Scalable Radix Top-K Selection
on GPUs") restructures the kernel around three ideas, reproduced here on
the simulator:

* **Adaptive per-pass digit width.**  The first pass sizes its digit from
  the surplus factor ``n / k`` (there is no point histogramming 8 bits
  when 4 would already isolate the k-th bucket); every later pass sizes
  its digit from the *measured* survivor count of the previous histogram.
  Widths are clamped to [:data:`MIN_DIGIT_BITS`, :data:`MAX_DIGIT_BITS`]
  — the shared-memory histogram footprint bounds the top end, divergence
  the bottom.

* **Write-friendly candidate buffering.**  The strawman scatters the
  surviving bucket to global memory every pass — for adversarial
  distributions that is a second full-size write per pass.  RadiK defers
  the scatter: while the survivor set is larger than the candidate
  buffer (:func:`buffer_budget`, sized from k), a pass only *refines the
  digit-prefix filter* and pays nothing beyond its histogram read.  The
  first pass whose survivors fit the buffer performs one filter kernel
  (read the input once, append survivors and the already-resolved top
  elements with atomic tickets), and every later pass compacts within
  the buffer — tiny reads, tiny writes.

* **Batched multi-query execution.**  :func:`batched_radik_topk` fuses a
  ``[batch, n]`` matrix into one multi-query pass sequence: every fused
  kernel processes all still-active rows (per-row bookkeeping lives in
  the grid), so the launch count does not scale with the batch — the
  same amortization the bitonic batcher exploits, now available to
  radix-planned queries through the serving layer's Batch IR node.

Functionally the operator is exact and bit-equal to the canonical order
(value descending, lower row on ties, NaN last: the codes of
:func:`repro.algorithms.keys.encode`).
The execution trace records the traffic the fused CUDA kernels would
generate, with the per-pass survivor fractions *measured* on the
functional run (the scale-substitution contract of
:mod:`repro.algorithms.base`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import (
    SUPPORTED_DTYPES,
    TopKAlgorithm,
    TopKResult,
    validate_topk_args,
)
from repro.algorithms.radix_select import (
    HISTOGRAM_INTS_PER_THREAD,
    _descending_prefix_counts,
)
from repro.errors import InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device

#: Smallest digit a pass will histogram; below this the pass bookkeeping
#: (launch, prefix sum) outweighs the reduction it buys.
MIN_DIGIT_BITS = 4

#: Largest digit a pass may histogram: 2^12 counters is the most a
#: per-block shared-memory histogram holds without spilling.
MAX_DIGIT_BITS = 12

#: Floor of the candidate-buffer budget in elements.
BUFFER_BASE = 4096

#: Budget elements granted per requested k (large k earns a larger buffer
#: — exactly the regime RadiK targets).
BUFFER_PER_K = 32


def buffer_budget(k: int) -> int:
    """Candidate-buffer capacity in elements for a k-selection."""
    return max(BUFFER_BASE, BUFFER_PER_K * int(k))


def plan_width(candidates_per_k: float, bits_left: int) -> int:
    """Digit width for the next pass.

    ``candidates_per_k`` is the surplus factor (current candidates over
    still-needed results); an ideal uniform pass of width w cuts it by
    2^w, so the target width is ``ceil(log2(surplus))``, clamped to the
    implementable range and to the key bits that remain.
    """
    target = math.ceil(math.log2(max(candidates_per_k, 2.0)))
    width = max(MIN_DIGIT_BITS, min(MAX_DIGIT_BITS, target))
    return max(1, min(bits_left, width))


def histogram_blocks(num_threads: int, elements: float) -> int:
    """Thread blocks a histogram launch over ``elements`` occupies."""
    needed = math.ceil(max(1.0, elements) / (256.0 * HISTOGRAM_INTS_PER_THREAD))
    return max(1, min(num_threads // 256, needed))


#: Scatter decision of one pass: defer (filter not yet affordable),
#: filter (first scatter into the candidate buffer), or compact
#: (in-buffer shuffle once buffered).
DEFER, FILTER, COMPACT = "defer", "filter", "compact"


@dataclass(frozen=True)
class PassRecord:
    """One adaptive pass as measured on the functional run."""

    width: int
    #: Survivor fraction (eta): candidates landing in the k-th bucket.
    eta: float
    #: Fraction of candidates emitted straight to the result (above the
    #: k-th bucket).
    emitted_fraction: float
    #: The pass's scatter decision (:data:`DEFER` / :data:`FILTER` /
    #: :data:`COMPACT`).
    action: str


def _select(
    data: np.ndarray, k: int, model_n: int | None = None
) -> tuple[np.ndarray, list[PassRecord], int]:
    """The functional adaptive selection shared by the single and batched
    operators.

    Returns (the top-k rows in canonical order, pass records, and the
    candidate count the final sort consumed).

    ``model_n`` extends the scale-substitution contract to the *schedule*:
    digit widths and the defer/filter decision are planned from candidate
    counts scaled to the modeled input (the schedule the kernel would run
    at full size), while the loop's termination and the result stay exact
    on the functional payload.  Survivor fractions are still measured, so
    the trace extrapolates a schedule that matches the modeled surplus
    factor instead of the capped functional one.
    """
    n = len(data)
    scale = (model_n / n) if model_n else 1.0
    codes = keycodec.encode(data)
    candidates = codes
    candidate_rows = np.arange(n, dtype=np.int64)
    bits = keycodec.key_bits(data.dtype)
    budget = buffer_budget(k)

    result_codes: list[np.ndarray] = []
    result_rows: list[np.ndarray] = []
    remaining = k
    emitted_total = 0
    buffered = False
    shift = bits
    passes: list[PassRecord] = []

    while len(candidates) > remaining and shift > 0:
        width = plan_width(
            len(candidates) * scale / max(1, remaining), shift
        )
        shift -= width
        digits = keycodec.digit(candidates, shift, width)
        histogram = np.bincount(digits, minlength=1 << width)
        higher_counts = _descending_prefix_counts(histogram)
        at_least_counts = higher_counts + histogram
        bucket = int(np.max(np.flatnonzero(at_least_counts >= remaining)))
        in_bucket = digits == bucket
        above = digits > bucket
        survivors = int(histogram[bucket])
        emitted = int(above.sum())
        live = len(candidates)
        if buffered:
            action = COMPACT
        elif survivors * scale <= budget:
            action = FILTER
            buffered = True
        else:
            action = DEFER
        passes.append(
            PassRecord(
                width=width,
                eta=survivors / live,
                emitted_fraction=emitted / live,
                action=action,
            )
        )
        if emitted:
            result_codes.append(candidates[above])
            result_rows.append(candidate_rows[above])
            remaining -= emitted
            emitted_total += emitted
        candidates = candidates[in_bucket]
        candidate_rows = candidate_rows[in_bucket]
        if survivors <= remaining:
            break

    final_candidates = emitted_total + len(candidates)
    if remaining > 0:
        order = keycodec.canonical_topk(candidates, candidate_rows, remaining)
        result_codes.append(candidates[order])
        result_rows.append(candidate_rows[order])

    all_codes = np.concatenate(result_codes) if result_codes else candidates[:0]
    all_rows = np.concatenate(result_rows) if result_rows else candidate_rows[:0]
    order = keycodec.canonical_topk(all_codes, all_rows, k)
    return all_rows[order], passes, final_candidates


def _trace_passes(
    trace: ExecutionTrace,
    model_n: float,
    width_bytes: int,
    num_threads: int,
    k: int,
    passes: list[PassRecord],
    final_fraction: float,
    label: str = "radik",
    batch: float = 1.0,
) -> None:
    """Append the pass kernels for one query (scaled to ``batch`` lanes).

    ``final_fraction`` is the measured final-sort input over n.  Traffic
    scales with ``batch`` (all lanes share each fused launch); the launch
    count does not — the point of the batched operator.
    """
    live = model_n
    materialized = model_n
    emitted_total = 0.0
    for index, record in enumerate(passes):
        blocks = histogram_blocks(num_threads, materialized)
        histogram_bytes = (1 << record.width) * 4.0 * blocks
        histogram = trace.launch(f"{label}-histogram-{index}")
        histogram.add_global_read(materialized * width_bytes * batch)
        histogram.add_global_write(histogram_bytes * batch)
        histogram.add_shared(materialized * 4.0 * batch)
        prefix = trace.launch(f"{label}-prefix-{index}")
        prefix.add_global_read(histogram_bytes * batch)
        prefix.add_global_write(histogram_bytes * batch)
        survivors = live * record.eta
        emitted = live * record.emitted_fraction
        if record.action == COMPACT:
            compact = trace.launch(f"{label}-compact-{index}")
            compact.add_global_read(live * width_bytes * batch)
            compact.add_global_write((survivors + emitted) * width_bytes * batch)
            compact.atomic_ops += (survivors + emitted) * batch
            materialized = survivors
        elif record.action == FILTER:
            emitted_total += emitted
            appended = survivors + emitted_total
            filter_kernel = trace.launch(f"{label}-filter-{index}")
            filter_kernel.add_global_read(materialized * width_bytes * batch)
            filter_kernel.add_global_write(appended * width_bytes * batch)
            filter_kernel.atomic_ops += appended * batch
            materialized = survivors
        else:
            # Deferred: the pass only refined the digit-prefix filter —
            # no data write, and the next histogram re-reads the input.
            emitted_total += emitted
        live = survivors
        trace.notes[f"width_{index}"] = record.width
        trace.notes[f"eta_{index}"] = record.eta
        trace.notes[f"action_{index}"] = record.action
    final_elements = max(float(k), model_n * final_fraction)
    final = trace.launch(f"{label}-final")
    final.add_global_read(final_elements * width_bytes * batch)
    final.add_global_write(k * width_bytes * batch)
    final.compute_ops += final_elements * max(1.0, math.log2(max(2.0, final_elements)))
    trace.notes["passes"] = len(passes)
    trace.notes["deferred_passes"] = sum(1 for p in passes if p.action == DEFER)


class RadiKTopK(TopKAlgorithm):
    """Top-k via adaptive-pass, write-buffered radix selection."""

    name = "radik"

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        with obs.span("phase:radik-passes", category="phase", n=n, k=k) as phase:
            top_rows, passes, final_candidates = _select(data, k, model_n)
            phase.set(
                passes=len(passes),
                deferred=sum(1 for p in passes if p.action == DEFER),
            )
            registry = obs.active_metrics()
            if registry is not None:
                for record in passes:
                    registry.histogram("radik.survivor_fraction").observe(
                        record.eta
                    )
                    registry.histogram("radik.emitted_fraction").observe(
                        record.emitted_fraction
                    )
                    registry.histogram("radik.digit_width").observe(record.width)
        values = data[top_rows]

        trace = ExecutionTrace()
        _trace_passes(
            trace,
            float(model_n or n),
            keycodec.key_bytes(data.dtype),
            self.device.total_cores * 8,
            k,
            passes,
            final_candidates / n,
        )
        return self._result(values, top_rows, trace, k, n, model_n)


def batched_radik_topk(
    matrix: np.ndarray,
    k: int,
    device: DeviceSpec | None = None,
    model_rows: int | None = None,
) -> TopKResult:
    """Top-k of every row of a [batch, n] array via fused radix passes.

    Returns a :class:`TopKResult` whose ``values`` and ``indices`` are
    [batch, k] arrays (indices are column positions within each row).
    Every fused pass serves all rows still selecting: one histogram /
    prefix / scatter launch regardless of the batch size, with per-row
    bookkeeping riding in the grid.  Rows that finish early drop out of
    the later passes' traffic.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise InvalidParameterError("batched top-k expects a 2-D array")
    if matrix.dtype.type not in SUPPORTED_DTYPES:
        supported = ", ".join(t.__name__ for t in SUPPORTED_DTYPES)
        raise InvalidParameterError(
            f"unsupported dtype {matrix.dtype}; supported: {supported}"
        )
    rows, n = matrix.shape
    if rows == 0 or n == 0:
        raise InvalidParameterError("batched top-k needs a non-empty matrix")
    if k <= 0 or k > n:
        raise InvalidParameterError(f"k = {k} must be in [1, {n}]")
    device = device or get_device()
    width_bytes = keycodec.key_bytes(matrix.dtype)
    num_threads = device.total_cores * 8

    with obs.span(
        "batched-radik", category="api", rows=rows, n=n, k=k
    ) as span:
        values = np.empty((rows, k), dtype=matrix.dtype)
        indices = np.empty((rows, k), dtype=np.int64)
        schedules: list[tuple[list[PassRecord], int]] = []
        for row in range(rows):
            row_indices, passes, final_candidates = _select(matrix[row], k)
            values[row] = matrix[row, row_indices]
            indices[row] = row_indices
            schedules.append((passes, final_candidates))

        # The fused trace: pass i is ONE launch triple serving every row
        # whose schedule still has an i-th pass; its traffic is the sum of
        # those rows' per-lane traffic.  The batch multiplier handles
        # model_rows extrapolation (rows beyond the functional batch are
        # modeled as repeating the measured lane mix).
        batch_scale = (model_rows or rows) / rows
        trace = ExecutionTrace()
        fused_passes = max(len(passes) for passes, _ in schedules)
        for index in range(fused_passes):
            active = [p[index] for p, _ in schedules if len(p) > index]
            fused_width = max(record.width for record in active)
            live_read = 0.0
            scatter_read = 0.0
            scatter_write = 0.0
            appended = 0.0
            for passes, _ in schedules:
                if len(passes) <= index:
                    continue
                lane_live = float(n)
                lane_materialized = float(n)
                lane_emitted = 0.0
                for record in passes[: index + 1]:
                    survivors = lane_live * record.eta
                    emitted = lane_live * record.emitted_fraction
                    if record is passes[index]:
                        live_read += lane_materialized
                        if record.action == COMPACT:
                            scatter_read += lane_live
                            scatter_write += survivors + emitted
                            appended += survivors + emitted
                        elif record.action == FILTER:
                            scatter_read += lane_materialized
                            scatter_write += survivors + lane_emitted + emitted
                            appended += survivors + lane_emitted + emitted
                    if record.action in (FILTER, COMPACT):
                        lane_materialized = survivors
                    lane_emitted += emitted
                    lane_live = survivors
            blocks = histogram_blocks(num_threads, live_read)
            histogram_bytes = (1 << fused_width) * 4.0 * blocks
            histogram = trace.launch(f"radik-batch-histogram-{index}")
            histogram.add_global_read(live_read * width_bytes * batch_scale)
            histogram.add_global_write(
                histogram_bytes * len(active) * batch_scale
            )
            histogram.add_shared(live_read * 4.0 * batch_scale)
            prefix = trace.launch(f"radik-batch-prefix-{index}")
            prefix.add_global_read(histogram_bytes * len(active) * batch_scale)
            prefix.add_global_write(histogram_bytes * len(active) * batch_scale)
            if scatter_write > 0.0:
                scatter = trace.launch(f"radik-batch-scatter-{index}")
                scatter.add_global_read(scatter_read * width_bytes * batch_scale)
                scatter.add_global_write(
                    scatter_write * width_bytes * batch_scale
                )
                scatter.atomic_ops += appended * batch_scale
        final_elements = sum(
            max(float(k), float(final)) for _, final in schedules
        )
        final = trace.launch("radik-batch-final")
        final.add_global_read(final_elements * width_bytes * batch_scale)
        final.add_global_write(rows * k * width_bytes * batch_scale)
        final.compute_ops += final_elements * max(
            1.0, math.log2(max(2.0, final_elements))
        )
        trace.notes["passes"] = fused_passes
        trace.notes["batch_rows"] = model_rows or rows
        from repro.observability.instrument import record_trace

        span.set(simulated_ms=record_trace(trace, device))

    return TopKResult(
        values=values,
        indices=indices,
        trace=trace,
        algorithm="batched-radik",
        k=k,
        n=rows * n,
        model_n=(model_rows or rows) * n,
    )
