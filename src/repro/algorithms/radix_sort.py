"""LSD radix sort with 8-bit digits — the Sort baseline's engine.

The paper's Sort-and-Choose baseline uses the fastest GPU sort available,
an 8-bit-digit radix sort (Section 2.2).  One pass per digit performs:

1. histogram of the current digit (one sequential scan),
2. exclusive prefix sum over the counts to obtain bucket offsets,
3. stable scatter of the keys into their buckets.

Counter accounting per pass (matching the sort cost model): read all keys
for the histogram, read + write all keys for the scatter, plus the small
histogram/prefix-sum traffic.  32-bit keys take 4 passes, 64-bit keys 8 —
the paper's explanation for the doubled Sort cost on doubles (Fig. 11c).

Implementation note: the histogram and prefix sum are computed explicitly;
the stable scatter permutation within equal digits is obtained via numpy's
stable integer sort over the digit array (itself a counting sort), then
validated against the explicit offsets.  Payload columns are permuted
alongside the keys, which is how the key+value experiments run.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.gpu.counters import ExecutionTrace

#: Digit width used throughout (Section 4.2 revised the GGKS code to 8 bits).
DIGIT_BITS = 8
RADIX = 1 << DIGIT_BITS


def exclusive_prefix_sum(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum — bucket start offsets from bucket counts."""
    offsets = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


def radix_sort_pass(
    codes: np.ndarray, shift: int, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One stable LSD pass on the digit at ``shift``.

    Returns (sorted codes, permuted payload, histogram).
    """
    digits = keycodec.digit(codes, shift, DIGIT_BITS)
    histogram = np.bincount(digits, minlength=RADIX)
    # The scatter destination for element i is offsets[digit[i]] plus its
    # stable rank among equal digits; numpy's stable argsort over the digit
    # array realizes exactly that permutation.
    permutation = np.argsort(digits, kind="stable")
    sorted_codes = codes[permutation]
    sorted_payload = payload[permutation] if payload is not None else None
    return sorted_codes, sorted_payload, histogram


def _lsd_rows(codes: np.ndarray) -> np.ndarray:
    """The stable permutation sorting ``codes`` ascending, one LSD pass per
    digit."""
    rows = np.arange(len(codes), dtype=np.int64)
    for shift in range(0, 8 * codes.itemsize, DIGIT_BITS):
        codes, rows, _ = radix_sort_pass(codes, shift, rows)
    return rows


def radix_sort(
    values: np.ndarray, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Full ascending LSD radix sort of ``values`` in the canonical code
    order (NaN first); returns the sorted values and the permuted payload
    (the permutation itself without one)."""
    rows = _lsd_rows(keycodec.encode(values))
    return values[rows], rows if payload is None else payload[rows]


class SortTopK(TopKAlgorithm):
    """Sort-and-Choose: radix sort everything, take the first k (Section 3).

    Its cost is independent of both k and the data distribution — the flat
    line of Figures 11 and 12 — because every pass reads and rewrites the
    entire input regardless.
    """

    name = "sort"

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n
        with obs.span(
            "phase:radix-sort",
            category="phase",
            n=n,
            passes=keycodec.key_bits(data.dtype) // DIGIT_BITS,
        ):
            # Complemented codes sort ascending, stably: the canonical order.
            indices = _lsd_rows(~keycodec.encode(data))[:k]
        values = data[indices]

        trace = ExecutionTrace()
        width = keycodec.key_bytes(data.dtype)
        data_bytes = float(model) * width
        num_threads = self.device.total_cores * 8
        histogram_bytes = RADIX * 4.0 * num_threads
        passes = keycodec.key_bits(data.dtype) // DIGIT_BITS
        for index in range(passes):
            histogram = trace.launch(f"sort-histogram-{index}")
            histogram.add_global_read(data_bytes)
            histogram.add_global_write(histogram_bytes)
            prefix = trace.launch(f"sort-prefix-{index}")
            prefix.add_global_read(histogram_bytes)
            prefix.add_global_write(histogram_bytes)
            scatter = trace.launch(f"sort-scatter-{index}")
            scatter.add_global_read(data_bytes)
            scatter.add_global_write(data_bytes)
        trace.notes["passes"] = passes
        return self._result(values, indices, trace, k, n, model_n)
