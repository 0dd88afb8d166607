"""Bucket select adapted to top-k (Sections 2.3 and 4.2).

Where radix select partitions by digit bits, bucket select partitions the
*value range*: an explicit first pass finds min and max, then each
refinement pass splits the live range into 16 equal-width buckets, counts
elements per bucket (with atomic increments — the source of its overhead
relative to radix select), locates the bucket holding the k-th largest,
streams higher buckets straight to the result, and recurses into the
matched bucket.

Special cases from the paper:

* k = 1 terminates right after the min/max pass (the fast point at k = 1
  in Figure 11a);
* when a pass achieves no reduction (all candidates equal, or the matched
  bucket holds everything — the bucket-killer regime), the refinement
  cannot make progress and the remaining candidates are resolved by
  sorting them, costing the extra passes Figure 12b shows.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.gpu.counters import ExecutionTrace

#: Buckets per refinement pass (Section 4.2: "divides the data into 16
#: buckets at a time").
NUM_BUCKETS = 16

#: Safety bound on refinement passes; float32 has ~2^32 distinct values so
#: log_16 (2^32) = 8 passes suffice for distinguishable keys.
MAX_PASSES = 64


class BucketSelectTopK(TopKAlgorithm):
    """Top-k via min-max bucket refinement."""

    name = "bucket-select"

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        work = data.astype(np.float64)
        if data.dtype.kind == "f":
            # Clamp infinities to finite sentinels so the equi-width bucket
            # edges stay finite, and rank NaN below them; any float32
            # magnitude is far below 1e300, so the relative order is
            # untouched (result values are gathered from the original data).
            work = np.nan_to_num(work, nan=-2e300, posinf=1e300, neginf=-1e300)
        # The buckets only narrow the candidates; survivors are ordered by
        # their canonical codes, exact where float64 rounds 64-bit keys.
        codes = keycodec.encode(data)
        rows = np.arange(n, dtype=np.int64)

        low = float(work.min())
        high = float(work.max())
        pass_log: list[dict[str, float]] = []

        if k == 1:
            # The min-max pass already yields the answer (Section 6.2).
            index = int(np.argmax(codes))
            trace = self._build_trace(model_n or n, data.dtype, pass_log, k)
            values = data[index : index + 1].copy()
            return self._result(values, np.array([index]), trace, k, n, model_n)

        result_rows: list[np.ndarray] = []
        remaining = k
        candidates = work
        candidate_rows = rows
        with obs.span(
            "phase:bucket-refinement", category="phase", n=n, k=k
        ) as phase:
            for _ in range(MAX_PASSES):
                if remaining <= 0 or len(candidates) <= remaining or low == high:
                    break
                if float(candidates.min()) == float(candidates.max()):
                    # All candidates tie (the bucket-killer tail): no amount
                    # of range refinement separates them; resolve by padding
                    # below.
                    break
                edges = np.linspace(low, high, NUM_BUCKETS + 1)
                # Bucket index in [0, NUM_BUCKETS): highest holds the max.
                buckets = np.clip(
                    np.searchsorted(edges, candidates, side="right") - 1,
                    0,
                    NUM_BUCKETS - 1,
                )
                counts = np.bincount(buckets, minlength=NUM_BUCKETS)
                cumulative_from_top = np.cumsum(counts[::-1])[::-1]
                matched = int(
                    np.max(np.flatnonzero(cumulative_from_top >= remaining))
                )
                above = buckets > matched
                in_bucket = buckets == matched
                emitted = int(above.sum())
                survivors = int(counts[matched])
                pass_log.append(
                    {
                        "eta": survivors / len(candidates),
                        "emitted": emitted / len(candidates),
                        "atomics": float(len(candidates)),
                    }
                )
                if emitted:
                    result_rows.append(candidate_rows[above])
                    remaining -= emitted
                if survivors == len(candidates):
                    # No reduction possible within this range: the candidates
                    # are concentrated in one bucket; narrow the range and,
                    # if the range cannot narrow (all equal), stop.
                    new_low, new_high = edges[matched], edges[matched + 1]
                    if (new_low, new_high) == (low, high):
                        break
                    low, high = new_low, new_high
                    continue
                candidates = candidates[in_bucket]
                candidate_rows = candidate_rows[in_bucket]
                low, high = edges[matched], edges[matched + 1]
            phase.set(passes=len(pass_log))
            registry = obs.active_metrics()
            if registry is not None:
                for entry in pass_log:
                    registry.histogram("bucket_select.survivor_fraction").observe(
                        entry["eta"]
                    )

        if remaining > 0:
            tail = keycodec.canonical_topk(
                codes[candidate_rows], candidate_rows, remaining
            )
            result_rows.append(candidate_rows[tail])

        indices = np.concatenate(result_rows)
        indices = indices[keycodec.canonical_topk(codes[indices], indices, k)]
        values = data[indices]
        trace = self._build_trace(model_n or n, data.dtype, pass_log, k)
        return self._result(values, indices, trace, k, n, model_n)

    def _build_trace(
        self,
        model_n: int,
        dtype: np.dtype,
        pass_log: list[dict[str, float]],
        k: int,
    ) -> ExecutionTrace:
        trace = ExecutionTrace()
        width = dtype.itemsize
        minmax = trace.launch("bucket-minmax")
        minmax.add_global_read(float(model_n) * width)
        live = float(model_n)
        for index, entry in enumerate(pass_log):
            count = trace.launch(f"bucket-count-{index}")
            count.add_global_read(live * width)
            count.atomic_ops = live
            surviving = entry["eta"] + entry["emitted"]
            if surviving < 0.5:
                scatter = trace.launch(f"bucket-scatter-{index}")
                scatter.add_global_read(live * width)
                scatter.add_global_write(live * surviving * width)
                live *= entry["eta"]
            # Otherwise the pass barely reduced the data: keep the input in
            # place and only narrow the value range (the write-skip trick of
            # Section 4.2), so the next pass rescans the same candidates.
            trace.notes[f"eta_{index}"] = entry["eta"]
        trace.notes["passes"] = len(pass_log)
        return trace
