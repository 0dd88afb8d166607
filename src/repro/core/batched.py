"""Batched top-k: one top-k per row of a matrix.

The paper's introduction cites open feature requests in TensorFlow and
ArrayFire for a GPU top-k operator; both frameworks need the *batched*
form (top-k per row of a [batch, n] tensor).  The bitonic network extends
to it for free: every compare-exchange step applies elementwise along the
row axis, so one fused kernel serves the whole batch and the per-row
launches amortize — exactly the regime where bitonic's uniformity shines.

Functionally every row runs through the same tile-major kernel, on the
same canonical keys, as the single-row algorithm
(:func:`repro.bitonic.operators.reduce_topk` takes a ``(rows, n)`` batch),
so each row's answer is the oracle's.  The execution trace is the
single-row kernel pipeline with its traffic scaled by the batch size (the
launch count does not scale — the point of batching).
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import SUPPORTED_DTYPES, TopKResult
from repro.bitonic.kernels import build_trace
from repro.bitonic.operators import reduce_topk
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.errors import InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device


def batched_reduce_topk(
    matrix: np.ndarray, k: int, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reduce every row of ``matrix`` (power-of-two width) to its top-k;
    ``payload`` is the second key."""
    if matrix.ndim != 2:
        raise InvalidParameterError("batched top-k expects a 2-D array")
    return reduce_topk(matrix, k, payload)


def batched_topk(
    matrix: np.ndarray,
    k: int,
    device: DeviceSpec | None = None,
    flags: OptimizationFlags = FULL,
    model_rows: int | None = None,
) -> TopKResult:
    """Top-k of every row of a [batch, n] array.

    Returns a :class:`TopKResult` whose ``values`` and ``indices`` are
    [batch, k] arrays (indices are column positions within each row).
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

    network_k = 1 << max(0, (k - 1).bit_length())
    padded_n = max(1 << max(0, (n - 1).bit_length()), network_k)
    with obs.span(
        "batched-topk",
        category="api",
        rows=rows,
        n=n,
        k=k,
        network_k=network_k,
    ) as span:
        keys, columns = keycodec.sort_keys(matrix, padded_n)
        top_keys, top_columns = batched_reduce_topk(keys, network_k, columns)
        top_indices = keycodec.key_rows(top_keys, top_columns, k)
        top_values = np.take_along_axis(matrix, top_indices, axis=1)

        # The single-row kernel pipeline, traffic scaled by the batch size but
        # launch count unchanged (one fused launch covers all rows).
        single_row = build_trace(
            padded_n, network_k, matrix.dtype.itemsize, flags, device
        )
        batch = model_rows or rows
        trace = ExecutionTrace(notes=dict(single_row.notes))
        trace.kernels = [kernel.scaled(batch) for kernel in single_row.kernels]
        trace.notes["batch_rows"] = batch
        from repro.observability.instrument import record_trace

        span.set(simulated_ms=record_trace(trace, device))
    return TopKResult(
        values=top_values,
        indices=top_indices,
        trace=trace,
        algorithm="batched-bitonic",
        k=k,
        n=rows * n,
        model_n=batch * padded_n,
    )
