"""Batched top-k: one top-k per row of a matrix or of a ragged tile.

The paper's introduction cites open feature requests in TensorFlow and
ArrayFire for a GPU top-k operator; both frameworks need the *batched*
form (top-k per row of a [batch, n] tensor).  The bitonic network extends
to it for free: every compare-exchange step applies elementwise along the
row axis, so one fused kernel serves the whole batch and the per-row
launches amortize — exactly the regime where bitonic's uniformity shines.

The rows need not share a length, a k or a dtype.  Every row is padded to
the tile's width, the next power of two of its longest row, with code 0
past its length, which ranks below every real row; rows of any 32-bit dtype share the packed
key layout (:func:`repro.algorithms.keys.layout`).  Functionally every row
runs through the same reduction, on the same canonical keys, as the
single-row algorithm (:func:`repro.bitonic.operators.reduce_topk` takes a
``(rows, width)`` tile): it computes the network's output at the largest
k's network, its runs sorted and packed keys merged by ``np.maximum``
against the reversed partner run in two buffers, and each row reads its
own k-prefix, so each row's answer is the oracle's.  The execution trace
carries the cost: the single-row kernel pipeline at the tile's width with
its traffic scaled by the row count (the launch count does not scale —
the point of batching).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import SUPPORTED_DTYPES, TopKResult
from repro.bitonic.kernels import build_trace
from repro.bitonic.network import next_pow2
from repro.bitonic.operators import reduce_topk
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.errors import InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device


class RaggedRows(tuple):
    """1-D rows of any lengths and dtypes of one key layout: the ragged
    input of :func:`batched_topk`.

    A tuple whose ``shape`` is ``(rows, longest row)``, so ``np.shape``
    reads it without trying to build one array from rows of mixed length.
    """

    def __new__(cls, rows):
        return super().__new__(cls, (np.asarray(row) for row in rows))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), max(len(row) for row in self)


def batched_trace(
    width: int,
    network_k: int,
    itemsize: int,
    rows: int,
    flags: OptimizationFlags = FULL,
    device: DeviceSpec | None = None,
) -> ExecutionTrace:
    """The fused launch of a ``(rows, width)`` tile: the single-row kernel
    pipeline, traffic scaled by the row count but launch count unchanged
    (one fused launch covers all rows)."""
    single_row = build_trace(width, network_k, itemsize, flags, device or get_device())
    trace = ExecutionTrace(notes=dict(single_row.notes))
    trace.kernels = [kernel.scaled(rows) for kernel in single_row.kernels]
    trace.notes["batch_rows"] = rows
    return trace


def batched_topk(
    matrix: np.ndarray | RaggedRows,
    k: int | Sequence[int],
    device: DeviceSpec | None = None,
    flags: OptimizationFlags = FULL,
    model_rows: int | None = None,
) -> TopKResult:
    """Top-k of every row of a [batch, n] array or of a ragged tile.

    ``matrix`` is a 2-D array, or :class:`RaggedRows` whose lengths and
    dtypes may differ within one key layout.  ``k`` is one k for every row
    or one k per row.  A 2-D array with one k returns [batch, k] ``values``
    and ``indices``; otherwise both are lists, each row's at its own k, with
    its values gathered from its own row.  Indices are column positions
    within each row.
    """
    rows = matrix if isinstance(matrix, RaggedRows) else np.asarray(matrix)
    if isinstance(rows, np.ndarray) and rows.ndim != 2:
        raise InvalidParameterError("batched top-k expects a 2-D array")
    uniform = isinstance(rows, np.ndarray) and np.ndim(k) == 0
    ks, lengths, itemsize = _validate(rows, np.asarray(k))
    device = device or get_device()

    max_k = int(ks.max())
    network_k = next_pow2(max_k)
    width = next_pow2(int(lengths.max()))
    with obs.span(
        "batched-topk",
        category="api",
        rows=len(rows),
        n=int(lengths.max()),
        k=max_k,
        network_k=network_k,
    ) as span:
        keys, columns = keycodec.tile_keys(rows, width)
        top_keys, top_columns = reduce_topk(keys, network_k, columns)
        top = keycodec.key_rows(top_keys, top_columns, max_k)
        if uniform:
            values, indices = np.take_along_axis(rows, top, axis=1), top
        else:
            indices = [top[row, :row_k] for row, row_k in enumerate(ks)]
            values = [data[taken] for data, taken in zip(rows, indices)]

        batch = model_rows or len(rows)
        trace = batched_trace(width, network_k, itemsize, batch, flags, device)
        from repro.observability.instrument import record_trace

        span.set(simulated_ms=record_trace(trace, device))
    return TopKResult(
        values=values,
        indices=indices,
        trace=trace,
        algorithm="batched-bitonic",
        k=max_k,
        n=int(lengths.sum()),
        model_n=batch * width,
    )


def _validate(rows, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Each row's k, each row's length and the tile's item size, after
    checking every row and k."""
    if ks.ndim == 0:
        ks = np.broadcast_to(ks, (len(rows),))
    elif ks.shape != (len(rows),):
        raise InvalidParameterError(
            f"expected one k or {len(rows)} ks, got k of shape {ks.shape}"
        )
    if isinstance(rows, np.ndarray):
        dtypes, lengths = {rows.dtype}, np.full(len(rows), rows.shape[1])
    elif any(row.ndim != 1 for row in rows):
        raise InvalidParameterError("batched top-k rows must be 1-D")
    else:
        dtypes = {row.dtype for row in rows}
        lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    if len(lengths) == 0 or lengths.min() == 0:
        raise InvalidParameterError("batched top-k needs a non-empty matrix")
    unsupported = [dtype for dtype in dtypes if dtype.type not in SUPPORTED_DTYPES]
    if unsupported:
        supported = ", ".join(t.__name__ for t in SUPPORTED_DTYPES)
        raise InvalidParameterError(
            f"unsupported dtype {unsupported[0]}; supported: {supported}"
        )
    if len({keycodec.layout(dtype) for dtype in dtypes}) > 1:
        raise InvalidParameterError(
            "a tile's rows must share one key layout (32-bit or 64-bit data)"
        )
    bad = np.flatnonzero((ks <= 0) | (ks > lengths))
    if len(bad):
        row = bad[0]
        raise InvalidParameterError(f"k = {ks[row]} must be in [1, {lengths[row]}]")
    return ks, lengths, max(dtype.itemsize for dtype in dtypes)
