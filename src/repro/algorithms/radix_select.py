"""Radix select adapted to top-k (Sections 2.3 and 4.2).

MSD radix selection with 8-bit digits: each pass histograms the current
candidates' digit, locates the bucket holding the k-th largest element via
a (descending) prefix sum, emits every element in *higher* buckets straight
to the result — the Section 4.2 improvement that removes the final
pass — and recurses into the matched bucket only.

Two further details from Section 4.2 are implemented:

* if a pass achieves no reduction (every candidate shares the digit — the
  bucket-killer situation), the clustering write is skipped and the pass
  only costs its histogram scan;
* after the last digit the surviving candidates all equal the k-th value;
  the result is padded with them up to k.

The per-pass survivor fraction (eta_i of the Section 7 cost model) is
data-dependent; the execution trace records the fractions *measured* on
the functional run, which is how the adversarial distribution experiments
(Figure 12b) reproduce.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.algorithms.radix_sort import DIGIT_BITS
from repro.gpu.counters import ExecutionTrace

#: Histogram integers per thread in the paper's cost model (Section 7.1).
HISTOGRAM_INTS_PER_THREAD = 16


def _descending_prefix_counts(histogram: np.ndarray) -> np.ndarray:
    """counts[d] -> number of elements with digit > d."""
    reversed_cumsum = np.cumsum(histogram[::-1])
    higher = np.zeros_like(histogram)
    higher[:-1] = reversed_cumsum[:-1][::-1]
    return higher


class RadixSelectTopK(TopKAlgorithm):
    """Top-k via MSD radix selection (GGKS-derived, revised per Section 4.2)."""

    name = "radix-select"

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        codes = keycodec.encode(data)
        candidates = codes
        candidate_rows = np.arange(n, dtype=np.int64)
        bits = keycodec.key_bits(data.dtype)

        result_codes: list[np.ndarray] = []
        result_rows: list[np.ndarray] = []
        remaining = k
        pass_fractions: list[tuple[float, float, bool]] = []

        with obs.span("phase:select-passes", category="phase", n=n, k=k) as phase:
            for shift in range(bits - DIGIT_BITS, -DIGIT_BITS, -DIGIT_BITS):
                digits = keycodec.digit(candidates, shift, DIGIT_BITS)
                histogram = np.bincount(digits, minlength=1 << DIGIT_BITS)
                higher_counts = _descending_prefix_counts(histogram)
                # The bucket holding the remaining-th largest element: the
                # largest digit d with count(digit >= d) >= remaining; for that
                # bucket count(digit > d) < remaining <= count(digit >= d).
                at_least_counts = higher_counts + histogram
                bucket = int(np.max(np.flatnonzero(at_least_counts >= remaining)))
                in_bucket = digits == bucket
                above = digits > bucket
                survivors = int(histogram[bucket])
                emitted = int(above.sum())
                no_reduction = survivors == len(candidates)
                pass_fractions.append(
                    (
                        survivors / len(candidates),
                        emitted / len(candidates),
                        no_reduction,
                    )
                )
                if emitted:
                    result_codes.append(candidates[above])
                    result_rows.append(candidate_rows[above])
                    remaining -= emitted
                if no_reduction:
                    # Skip the clustering write and reuse the input (4.2).
                    continue
                candidates = candidates[in_bucket]
                candidate_rows = candidate_rows[in_bucket]
                if remaining <= 0 or survivors <= remaining:
                    break
            phase.set(passes=len(pass_fractions))
            registry = obs.active_metrics()
            if registry is not None:
                for eta, emitted_fraction, _ in pass_fractions:
                    registry.histogram("radix_select.survivor_fraction").observe(eta)
                    registry.histogram("radix_select.emitted_fraction").observe(
                        emitted_fraction
                    )

        # Whatever candidates remain all tie at (or bound) the k-th value;
        # pad the result with them (Section 4.2's final step).
        if remaining > 0:
            order = keycodec.canonical_topk(candidates, candidate_rows, remaining)
            result_codes.append(candidates[order])
            result_rows.append(candidate_rows[order])

        all_codes = np.concatenate(result_codes)
        all_rows = np.concatenate(result_rows)
        order = keycodec.canonical_topk(all_codes, all_rows, k)
        indices = all_rows[order]
        values = data[indices]

        trace = self._build_trace(model_n or n, data.dtype, pass_fractions)
        return self._result(values, indices, trace, k, n, model_n)

    def _build_trace(
        self,
        model_n: int,
        dtype: np.dtype,
        pass_fractions: list[tuple[float, float, bool]],
    ) -> ExecutionTrace:
        """Per-pass traffic per the Section 7.1 cost model, measured etas."""
        trace = ExecutionTrace()
        width = keycodec.key_bytes(dtype)
        num_threads = self.device.total_cores * 8
        histogram_bytes = HISTOGRAM_INTS_PER_THREAD * 4.0 * num_threads
        live = float(model_n)
        for index, (eta, emitted_fraction, no_reduction) in enumerate(pass_fractions):
            histogram = trace.launch(f"select-histogram-{index}")
            histogram.add_global_read(live * width)
            histogram.add_global_write(histogram_bytes)
            prefix = trace.launch(f"select-prefix-{index}")
            prefix.add_global_read(histogram_bytes)
            prefix.add_global_write(histogram_bytes)
            if not no_reduction:
                scatter = trace.launch(f"select-scatter-{index}")
                scatter.add_global_read(live * width)
                scatter.add_global_write(live * (eta + emitted_fraction) * width)
                live *= eta
            trace.notes[f"eta_{index}"] = eta
            trace.notes[f"emitted_{index}"] = emitted_fraction
        trace.notes["passes"] = len(pass_fractions)
        return trace
