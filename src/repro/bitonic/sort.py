"""Full bitonic sort (Section 2.2 background).

The textbook massively parallel sorting algorithm: log2(n) phases, phase p
performing p compare-exchange steps, O(n log^2 n) comparisons.  The paper's
background explains why modern GPU sorts abandoned it for radix sort — it
moves every element through every step — and the duality argument of
Figure 1 positions bitonic *top-k* as its priority-queue counterpart.

We implement it both as a standalone sorter (used by tests as an
independent oracle for the network conventions) and as a
:class:`TopKAlgorithm` whose trace quantifies the background claim: even
with the shared-memory optimization of Peters et al., a full bitonic sort
reads global memory once per *phase group* and loses to the 4-pass radix
sort for large n.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.bitonic.network import full_sort_steps, next_pow2
from repro.bitonic.operators import apply_step
from repro.errors import InvalidParameterError
from repro.gpu.banks import single_step_conflict_factor
from repro.gpu.counters import ExecutionTrace

#: Elements that fit one thread block's shared memory tile (16 KiB of
#: 4-byte keys), bounding which steps can run in shared memory.
SHARED_TILE_ELEMENTS = 4096


def bitonic_sort(
    values: np.ndarray, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending bitonic sort (out of place); pads to a power of two.

    Returns the sorted values and the carried payload (row positions when
    none is given).  The payload is the second key: equal values put the
    higher payload first.
    """
    n = len(values)
    if n == 0:
        return values.copy(), payload.copy() if payload is not None else None
    padded_n = next_pow2(n)
    if values.dtype.kind == "f":
        sentinel = np.inf
    else:
        sentinel = np.iinfo(values.dtype).max
    working = np.full(padded_n, sentinel, dtype=values.dtype)
    working[:n] = values
    working_payload = np.full(padded_n, -1, dtype=np.int64)
    working_payload[:n] = payload if payload is not None else np.arange(n)
    for step in full_sort_steps(padded_n):
        apply_step(working, step, working_payload)
    # Padding sentinels are maximal and sort to the end.
    return working[:n].copy(), working_payload[:n].copy()


class BitonicSortTopK(TopKAlgorithm):
    """Top-k by fully bitonic-sorting the input — the Section 2.2 baseline.

    Cost accounting follows the Peters et al. structure: steps whose
    comparison distance fits a shared-memory tile run there (grouped, one
    global round trip per group); the large-distance steps of the later
    phases must touch global memory individually — the O(n log^2 n) global
    traffic that makes full bitonic sort uncompetitive with radix sort.
    """

    name = "bitonic-sort"

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n
        # Ascending under the kernels' compare, so reversed it is canonical.
        _, permutation = bitonic_sort(*keycodec.sort_keys(data))
        indices = permutation[::-1][:k].copy()
        values = data[indices]

        trace = self._build_trace(model, data.dtype.itemsize)
        return self._result(values, indices, trace, k, n, model_n)

    def _build_trace(self, model_n: int, width: int) -> ExecutionTrace:
        trace = ExecutionTrace()
        padded_n = next_pow2(model_n)
        data_bytes = float(model_n) * width
        tile_distance = SHARED_TILE_ELEMENTS // 2
        global_steps = 0
        shared_groups = 0
        shared_steps = 0
        for step in full_sort_steps(padded_n):
            if step.inc < tile_distance:
                shared_steps += 1
            else:
                global_steps += 1
        # Steps group into multi-step kernels (Peters et al.): each group
        # costs one global round trip.  Small-distance steps additionally
        # run inside a shared tile; large-distance steps group through
        # strided virtual tiles but stay global-bandwidth bound.
        steps_per_group = max(1, int(math.log2(SHARED_TILE_ELEMENTS)))
        shared_groups = math.ceil(shared_steps / steps_per_group)
        global_groups = math.ceil(global_steps / steps_per_group)
        for index in range(shared_groups):
            kernel = trace.launch(f"bitonic-sort-shared-{index}")
            kernel.add_global_read(data_bytes)
            kernel.add_global_write(data_bytes)
            kernel.add_shared(
                data_bytes * 2 * steps_per_group,
                single_step_conflict_factor(2),
            )
        for index in range(global_groups):
            kernel = trace.launch(f"bitonic-sort-global-{index}")
            kernel.add_global_read(data_bytes)
            kernel.add_global_write(data_bytes)
        trace.notes["global_steps"] = global_steps
        trace.notes["shared_groups"] = shared_groups
        trace.notes["global_groups"] = global_groups
        return trace


def kth_largest(
    data: np.ndarray, k: int, algorithm: str = "radix-select"
) -> float:
    """The k-selection problem of Section 2.3: the k-th largest value.

    Solved through any registered top-k algorithm (radix select by
    default, mirroring the GGKS lineage); the k-th largest is the last
    entry of the top-k.
    """
    from repro.algorithms.registry import create

    if k <= 0 or k > len(data):
        raise InvalidParameterError(f"k = {k} must be in [1, {len(data)}]")
    result = create(algorithm).run(np.asarray(data), k)
    return result.values.min()
