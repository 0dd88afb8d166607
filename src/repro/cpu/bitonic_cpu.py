"""CPU bitonic top-k (Appendix C).

The reductive structure of the GPU algorithm ports directly: the input is
partitioned across cores, each core streams its partition through fixed-size
vectors (2048 elements, sized for L1 residency), runs the SortReducer
function over each vector to produce bitonic runs of length k at a 16:1
reduction, then iterates BitonicReducer phases ping-ponging between two
temporaries until only k elements remain.  Compare-exchanges within a
vector are executed SIMD-style (our numpy step executor stands in for the
128-bit SSE network of the reference implementation).  Padding and chunk
permutation are not needed on the CPU — there is no notion of a bank
conflict (Appendix C).

Cost model: the algorithm is strictly compute-bound on the CPU (its
compute-to-bandwidth ratio is far lower than the GPU's), so its time is
the O(n log^2 k) comparison count divided by the SIMD-parallel core
throughput — and is *distribution independent*, which is why it tracks the
heap methods on sorted input (Figure 15b) while losing badly on uniform
input (Figure 15a).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.bitonic.network import next_pow2, topk_total_comparisons
from repro.bitonic.operators import local_sort, merge, rebuild, reduce_topk
from repro.cpu.spec import I7_6900, CpuSpec
from repro.errors import InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec

#: Elements per streaming vector — sized so a vector stays L1-resident
#: (Appendix C uses 2048).
VECTOR_SIZE = 2048

#: Reduction factor per phase, matching the GPU kernels' 16 elements/thread.
REDUCTION_FACTOR = 16


def vector_sort_reduce(
    vector: np.ndarray, k: int, payload: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """SortReducer over one vector: unsorted -> k-runs, reduced 16x."""
    local_sort(vector, k, payload)
    reductions = 0
    while reductions < 4 and len(vector) > k:
        vector, payload = merge(vector, k, payload)
        reductions += 1
        if reductions < 4 and len(vector) > k:
            rebuild(vector, k, payload)
    return vector, payload


def vector_bitonic_reduce(
    vector: np.ndarray, k: int, payload: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """BitonicReducer over one vector: k-bitonic runs in, reduced 16x."""
    reductions = 0
    while reductions < 4 and len(vector) > k:
        rebuild(vector, k, payload)
        vector, payload = merge(vector, k, payload)
        reductions += 1
    return vector, payload


def partition_bitonic_topk(
    partition: np.ndarray, k: int, base_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 5: one core's streaming reduction of its partition.

    Returns the partition's top-k rows (all of them when it holds fewer)
    as ``(values, global rows)`` in the canonical order.
    """
    n = next_pow2(max(len(partition), k))
    keys, rows = keycodec.sort_keys(partition, n)

    pieces: list[tuple[np.ndarray, np.ndarray | None]] = []
    for start in range(0, n, VECTOR_SIZE):
        chunk = keys[start : start + VECTOR_SIZE].copy()
        chunk_rows = None if rows is None else rows[start : start + VECTOR_SIZE].copy()
        if len(chunk) >= max(2 * k, 2):
            chunk, chunk_rows = vector_sort_reduce(chunk, k, chunk_rows)
        pieces.append((chunk, chunk_rows))
    current = np.concatenate([chunk for chunk, _ in pieces])
    current_rows = None if rows is None else np.concatenate([r for _, r in pieces])

    # Cross-vector phases: piece boundaries break the run-direction
    # alternation, so the reduction re-establishes the k-run format first.
    top, top_rows = reduce_topk(current, k, current_rows)
    local = keycodec.key_rows(top, top_rows, k)
    local = local[local < len(partition)]
    return partition[local], local + base_index


class CpuBitonicTopK(TopKAlgorithm):
    """Appendix C: bitonic top-k on the CPU."""

    name = "cpu-bitonic"

    def __init__(
        self,
        device: DeviceSpec | None = None,
        cpu: CpuSpec = I7_6900,
    ):
        super().__init__(device)
        self.cpu = cpu

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        return k <= 2048

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        if k > 2048:
            raise InvalidParameterError("cpu-bitonic supports k <= 2048")
        n = len(data)
        model = model_n or n
        network_k = next_pow2(k)

        partitions = np.array_split(data, self.cpu.cores)
        offsets = np.cumsum([0] + [len(p) for p in partitions[:-1]])
        values_list = []
        rows_list = []
        for partition, offset in zip(partitions, offsets):
            if len(partition) == 0:
                continue
            values, rows = partition_bitonic_topk(
                partition, min(network_k, next_pow2(max(len(partition), 1))),
                int(offset),
            )
            values_list.append(values)
            rows_list.append(rows)
        all_values = np.concatenate(values_list)
        all_rows = np.concatenate(rows_list)
        order = keycodec.canonical_topk(keycodec.encode(all_values), all_rows, k)

        trace = ExecutionTrace()
        counters = trace.launch("cpu-bitonic")
        comparisons = topk_total_comparisons(next_pow2(model), network_k)
        cycles = comparisons * self.cpu.bitonic_compare_cycles / self.cpu.simd_width
        compute_seconds = self.cpu.compute_time(cycles)
        scan_seconds = self.cpu.scan_time(float(model) * data.dtype.itemsize)
        counters.fixed_seconds = max(compute_seconds, scan_seconds)
        trace.notes["comparisons"] = float(comparisons)
        indices = all_rows[order]
        return self._result(data[indices], indices, trace, k, n, model_n)
