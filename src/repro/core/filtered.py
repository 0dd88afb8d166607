"""Fused filter + top-k as a standalone API (Section 5 outside SQL).

``topk_where(values, mask, k)`` returns the top-k of the rows where
``mask`` holds, with a trace modeling the FusedSortReducer design: the
filter acts as a buffer filler, reading the base data once and feeding
matched elements straight into the in-shared-memory reduction — no
materialized intermediate.  ``percentile`` builds on the same machinery
for the common analytics ask ("the 99th percentile latency").
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import TopKResult, validate_topk_args
from repro.bitonic.kernels import build_trace
from repro.bitonic.network import next_pow2
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.bitonic.topk import BitonicTopK
from repro.errors import InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device


def topk_where(
    values: np.ndarray,
    mask: np.ndarray,
    k: int,
    device: DeviceSpec | None = None,
    flags: OptimizationFlags = FULL,
    model_n: int | None = None,
) -> TopKResult:
    """Top-k over the rows selected by a boolean mask, kernel-fused.

    ``k`` may exceed the number of selected rows; the result then contains
    every selected row (sorted), mirroring SQL LIMIT semantics.
    """
    values = np.asarray(values)
    mask = np.asarray(mask)
    if mask.shape != values.shape:
        raise InvalidParameterError("mask must have the same shape as values")
    if mask.dtype != np.bool_:
        raise InvalidParameterError("mask must be boolean")
    validate_topk_args(values, max(1, min(k, len(values))))
    if k <= 0:
        raise InvalidParameterError("k must be positive")
    device = device or get_device()

    selected_rows = np.flatnonzero(mask)
    selected = values[selected_rows]
    effective_k = min(k, len(selected))
    n = len(values)
    model = model_n or n
    selectivity = len(selected) / max(1, n)
    matched_model = max(1, int(round(model * selectivity)))

    if effective_k > 0:
        inner = BitonicTopK(device, flags).run(selected, effective_k)
        result_values = inner.values
        result_rows = selected_rows[inner.indices]
    else:
        result_values = values[:0].copy()
        result_rows = np.empty(0, dtype=np.int64)

    width = values.dtype.itemsize
    network_k = next_pow2(max(effective_k, 1))
    trace = ExecutionTrace()
    fused = build_trace(matched_model, network_k, width, flags, device)
    first = fused.kernels[0]
    first.name = "FusedSortReducer"
    # The buffer filler scans the *full* base column and stages every
    # scanned element through shared memory once (Section 5).
    first.global_bytes_read = float(model) * width
    first.add_shared(float(model) * 4.0)
    trace.extend(fused)
    trace.notes["selectivity"] = selectivity
    return TopKResult(
        values=result_values,
        indices=result_rows,
        trace=trace,
        algorithm="fused-filter-bitonic",
        k=effective_k,
        n=n,
        model_n=model,
    )


def percentile(
    values: np.ndarray,
    q: float,
    device: DeviceSpec | None = None,
) -> float:
    """The q-th percentile (0 < q <= 100) via k-selection.

    Uses the nearest-rank definition: the value whose descending rank is
    ``ceil((1 - q/100) * n)`` — p99 of a latency column is the 1%-th
    largest value.  One radix-select pass structure, no full sort.
    """
    values = np.asarray(values)
    if not 0.0 < q <= 100.0:
        raise InvalidParameterError("q must be in (0, 100]")
    n = len(values)
    if n == 0:
        raise InvalidParameterError("percentile of an empty array")
    rank = max(1, math.ceil((1.0 - q / 100.0) * n))
    from repro.algorithms.radix_select import RadixSelectTopK

    result = RadixSelectTopK(device).run(values, rank)
    return float(np.sort(result.values)[0])
