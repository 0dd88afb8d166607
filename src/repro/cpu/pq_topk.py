"""CPU priority-queue top-k baselines (Section 6.7).

Both methods partition the input across the cores, keep a per-core min-heap
of the k best values, and combine the per-core heaps at the end:

* **STL PQ** — the straightforward implementation over a generic priority
  queue: on a hit, ``pop()`` then ``push(x)`` (two sift passes).
* **Hand PQ** — the hand-optimized variant: compare against the heap root
  first and, on a hit, replace the root in place with a single sift-down
  (:meth:`repro.cpu.heap.MinHeap.push_pop_min`).

Both make identical insert *decisions* (they depend only on the heap
minimum), so they share the lockstep functional engine of
:mod:`repro.algorithms.per_thread` with one stream per core; they differ
only in modeled cycles per update.  Exact per-core insert counts are
measured from the run — the quantity behind the paper's observation that
for uniform data each core does only ~500 insertions over 67M elements,
while sorted-ascending input updates on every element (Figure 15b's 60-120x
blowup).
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.cpu.heap import MinHeap
from repro.cpu.spec import I7_6900, CpuSpec
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec


def _partition_streams(data: np.ndarray, cores: int) -> list[np.ndarray]:
    """Contiguous per-core partitions (the natural CPU layout)."""
    return np.array_split(data, cores)


def heap_topk_stream(
    values: np.ndarray, k: int
) -> tuple[list[float], int]:
    """Reference single-stream heap top-k using the real MinHeap.

    Used by tests to validate the lockstep engine's insert counts; returns
    (top values unsorted, insert count including warm-up).
    """
    heap = MinHeap(capacity=k)
    inserts = 0
    for value in values:
        if len(heap) < k:
            heap.push(float(value))
            inserts += 1
        elif value > heap.min():
            heap.push_pop_min(float(value))
            inserts += 1
    return heap.as_list(), inserts


class _CpuHeapTopK(TopKAlgorithm):
    """Shared machinery of the two PQ baselines."""

    #: Modeled cycles per heap update; set by subclasses.
    update_cycles_attr = "heap_replace_cycles"

    def __init__(
        self,
        device: DeviceSpec | None = None,
        cpu: CpuSpec = I7_6900,
    ):
        super().__init__(device)
        self.cpu = cpu

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n

        # Per-core contiguous streams; insert decisions via the per-core
        # running top-k state (decision-equivalent to a real heap).
        cores = self.cpu.cores
        codes = keycodec.encode(data)
        streams = _partition_streams(codes, cores)
        offsets = np.cumsum([0] + [len(s) for s in streams[:-1]])
        candidate_indices: list[np.ndarray] = []
        total_inserts = 0
        for stream, offset in zip(streams, offsets):
            if len(stream) == 0:
                continue
            kk = min(k, len(stream))
            top, inserts = self._stream_topk(stream, kk)
            candidate_indices.append(top + offset)
            total_inserts += inserts
        indices = np.concatenate(candidate_indices)
        indices = indices[keycodec.canonical_topk(codes[indices], indices, k)]

        trace = self._build_trace(model, n, k, data.dtype.itemsize, total_inserts)
        return self._result(data[indices], indices, trace, k, n, model_n)

    @staticmethod
    def _stream_topk(stream: np.ndarray, k: int) -> tuple[np.ndarray, int]:
        """Exact canonical top-k positions of one stream of codes plus its
        insert count.

        The running threshold is the k-th largest of the prefix; an element
        inserts when it beats the threshold, evicting the latest row among
        the lowest codes.  Vectorized chunk-wise: chunks whose maximum stays
        below the entering threshold are skipped (the common case for
        uniform data), others are resolved element-wise.
        """
        fill = min(k, len(stream))
        state = stream[:fill].copy()
        state_pos = np.arange(fill, dtype=np.int64)
        inserts = fill
        chunk = 4096
        position = fill
        while position < len(stream):
            block = stream[position : position + chunk]
            threshold = state.min()
            if block.max() <= threshold:
                position += len(block)
                continue
            for offset in np.flatnonzero(block > threshold):
                value = block[offset]
                lowest = state.min()
                if value > lowest:
                    slot = np.where(state == lowest, state_pos, -1).argmax()
                    state[slot] = value
                    state_pos[slot] = position + offset
                    inserts += 1
            position += len(block)
        return state_pos, inserts

    def _build_trace(
        self, model_n: int, functional_n: int, k: int, width: int, inserts: int
    ) -> ExecutionTrace:
        trace = ExecutionTrace()
        counters = trace.launch(f"{self.name}-scan")
        scan_seconds = self.cpu.scan_time(float(model_n) * width)
        model_inserts = self._extrapolate_inserts(
            inserts, functional_n, model_n, k
        )
        update_cycles = getattr(self.cpu, self.update_cycles_attr)
        compute_cycles = (
            float(model_n) * self.cpu.compare_cost_cycles
            + model_inserts * update_cycles * max(1.0, math.log2(max(k, 2)) / 5.0)
        )
        compute_seconds = self.cpu.compute_time(compute_cycles)
        seconds = max(scan_seconds, compute_seconds)
        counters.fixed_seconds = seconds
        trace.notes["cpu_seconds"] = seconds
        trace.notes["inserts"] = model_inserts
        return trace

    def _extrapolate_inserts(
        self, inserts: int, functional_n: int, model_n: int, k: int
    ) -> float:
        """Scale measured insert counts from functional to modeled size.

        Insert behaviour has two regimes: adversarial streams (sorted
        ascending) insert on every element, growing linearly with the
        stream, while exchangeable streams insert with probability k/i at
        position i, growing as k (1 + ln(m/k)).  We detect the regime from
        the measured rate and scale with the matching law.
        """
        if model_n <= functional_n:
            return float(inserts) * model_n / max(1, functional_n)
        cores = self.cpu.cores
        stream_func = max(1, functional_n // cores)
        stream_model = max(1, model_n // cores)
        per_stream = inserts / cores
        if per_stream >= 0.5 * stream_func:
            # Adversarial regime: inserts track the stream length.
            return float(inserts) * model_n / max(1, functional_n)
        expected_func = k * (1.0 + math.log(max(stream_func, k) / k))
        expected_model = k * (1.0 + math.log(max(stream_model, k) / k))
        return float(inserts) * expected_model / max(expected_func, 1.0)


class StlPqTopK(_CpuHeapTopK):
    """CPU baseline using a generic (STL-style) priority queue."""

    name = "cpu-stl-pq"
    update_cycles_attr = "stl_update_cycles"


class HandPqTopK(_CpuHeapTopK):
    """CPU baseline using the hand-optimized replace-root heap."""

    name = "cpu-hand-pq"
    update_cycles_attr = "heap_replace_cycles"
