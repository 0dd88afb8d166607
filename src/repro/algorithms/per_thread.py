"""Per-thread top-k (Algorithm 1) and its shared engine.

Every GPU thread maintains a private min-heap of the k largest values it
has seen; thread ``t`` scans elements ``t, t + nt, t + 2 nt, ...`` (the
coalesced order), and a final reduction combines the per-thread heaps.

Functional engine
-----------------

Executing tens of thousands of Python heaps is infeasible, but the *insert
decisions* of a min-heap depend only on its current minimum, so the heap
contents can be carried as a ``(threads, k)`` state matrix updated one
lockstep time step at a time (all threads look at their next element
simultaneously, exactly like the SIMT hardware).  This yields, exactly:

* the top-k result (matrix minimum replacement is decision-equivalent to
  the real heap),
* the per-thread insert counts, and
* the *warp-level* insert events — a warp is stalled when any of its 32
  lanes inserts, which is the thread-divergence cost of Section 4.1.

Scale fidelity: insert rates depend on the per-thread *stream length*, so
the functional run uses as many threads as makes its streams the same
length the modeled device would see at ``model_n`` (Section "Scale
substitution" in :mod:`repro.algorithms.base`).

Cost model (Section 4.1)
------------------------

One coalesced global read pass; per-element shared-memory compare against
the heap root; per warp-insert event a serialized heap update of
``~2 log2 k`` iterations for the whole warp; occupancy derated by the
``k * block_threads * width`` bytes of shared memory per block (the
algorithm *fails* when a minimum-size 32-thread block exceeds 48 KiB —
k > 384 for 4-byte keys, k > 192 for 8-byte keys, covering the paper's
observed failures at k >= 512 and k >= 256 respectively).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.errors import ResourceExhaustedError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec
from repro.gpu.occupancy import BlockResources, occupancy

#: Grid size the paper-style implementation launches (fixed, sized to keep
#: every SM busy independent of n).
DEVICE_THREADS = 16384


@dataclass
class LockstepStats:
    """Exact behavioural counts from the lockstep functional run."""

    threads: int
    stream_length: int
    inserts: int
    warp_insert_events: int
    #: Lockstep time steps executed (same for every thread).
    steps: int


def lockstep_topk(
    data: np.ndarray, k: int, num_threads: int, warp_size: int = 32
) -> tuple[np.ndarray, np.ndarray, LockstepStats]:
    """Run the per-thread top-k engine.

    Returns (state values, state indices) of shape (num_threads, k) — the
    per-thread heaps after the scan — plus the behavioural statistics.
    Unfilled heap slots hold the dtype minimum with index -1.
    """
    n = len(data)
    num_threads = max(1, min(num_threads, n))
    steps = math.ceil(n / num_threads)
    # The heaps rank canonical codes; padding is code 0 with index -1.
    codes = keycodec.encode(data)
    padded = np.zeros(steps * num_threads, dtype=codes.dtype)
    padded[:n] = codes
    matrix = padded.reshape(steps, num_threads)
    index_matrix = np.full(steps * num_threads, -1, dtype=np.int64)
    index_matrix[:n] = np.arange(n)
    index_matrix = index_matrix.reshape(steps, num_threads)

    heap_depth = min(k, steps)
    state = np.zeros((num_threads, k), dtype=codes.dtype)
    state[:, :heap_depth] = matrix[:heap_depth].T
    state_indices = np.full((num_threads, k), -1, dtype=np.int64)
    state_indices[:, :heap_depth] = index_matrix[:heap_depth].T

    inserts = int(num_threads * heap_depth)
    warp_events = 0
    num_warps = math.ceil(num_threads / warp_size)
    for step in range(heap_depth, steps):
        incoming = matrix[step]
        minima = state.min(axis=1)
        mask = incoming > minima
        if not mask.any():
            continue
        rows = np.flatnonzero(mask)
        # Evict the canonical minimum: among the lowest codes, the latest row.
        lowest = state[rows] == minima[rows, np.newaxis]
        slots = np.where(lowest, state_indices[rows], -1).argmax(axis=1)
        state[rows, slots] = incoming[rows]
        state_indices[rows, slots] = index_matrix[step][rows]
        inserts += len(rows)
        # A warp serializes when any of its lanes inserts.
        lane_warps = rows // warp_size
        warp_events += len(np.unique(lane_warps))
    # Warm-up inserts also stall warps (every warp inserts on each of the
    # first heap_depth steps).
    warp_events += num_warps * heap_depth
    stats = LockstepStats(
        threads=num_threads,
        stream_length=steps,
        inserts=inserts,
        warp_insert_events=warp_events,
        steps=steps,
    )
    values = np.full(state.shape, _minimum(data.dtype), dtype=data.dtype)
    filled = state_indices >= 0
    values[filled] = data[state_indices[filled]]
    return values, state_indices, stats


def _minimum(dtype: np.dtype):
    return -np.inf if dtype.kind == "f" else np.iinfo(dtype).min


def _final_topk(
    data: np.ndarray, state_indices: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global reduction over the per-thread heaps, in canonical order."""
    rows = state_indices[state_indices >= 0]
    rows = rows[keycodec.canonical_topk(keycodec.encode(data[rows]), rows, k)]
    return data[rows], rows


class PerThreadTopK(TopKAlgorithm):
    """Per-thread heap top-k (Algorithm 1, shared-memory heaps)."""

    name = "per-thread"

    def __init__(
        self, device: DeviceSpec | None = None, device_threads: int = DEVICE_THREADS
    ):
        super().__init__(device)
        self.device_threads = device_threads

    def _block_resources(self, k: int, width: int) -> BlockResources:
        """Largest block (by occupancy) that fits k keys per thread."""
        best: BlockResources | None = None
        best_occupancy = 0.0
        for threads in (256, 128, 64, 32):
            shared = k * threads * width
            if shared > self.device.shared_memory_per_block:
                continue
            resources = BlockResources(
                threads=threads, shared_memory_bytes=shared, registers_per_thread=40
            )
            value = occupancy(self.device, resources)
            if value > best_occupancy:
                best, best_occupancy = resources, value
        if best is None:
            raise ResourceExhaustedError(
                f"per-thread top-k needs {k * 32 * width} bytes of shared memory "
                f"per minimum-size block, exceeding the "
                f"{self.device.shared_memory_per_block}-byte limit (Section 4.1)"
            )
        return best

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        width = np.dtype(dtype).itemsize
        return k * 32 * width <= self.device.shared_memory_per_block

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n
        width = data.dtype.itemsize
        resources = self._block_resources(k, width)

        # Match functional stream length to the modeled one so insert rates
        # are measured at the right scale.
        model_stream = max(k, math.ceil(model / self.device_threads))
        functional_threads = max(1, min(self.device_threads, round(n / model_stream)))
        with obs.span(
            "phase:lockstep-scan",
            category="phase",
            threads=functional_threads,
            n=n,
            k=k,
        ) as phase:
            _, state_indices, stats = lockstep_topk(data, k, functional_threads)
            phase.set(
                inserts=stats.inserts, warp_insert_events=stats.warp_insert_events
            )
            registry = obs.active_metrics()
            if registry is not None:
                registry.counter("per_thread.inserts").inc(stats.inserts)
                registry.counter("per_thread.warp_insert_events").inc(
                    stats.warp_insert_events
                )
        values, indices = _final_topk(data, state_indices, k)

        trace = self._build_trace(model, k, width, resources, stats)
        return self._result(values, indices, trace, k, n, model_n)

    def _build_trace(
        self,
        model_n: int,
        k: int,
        width: int,
        resources: BlockResources,
        stats: LockstepStats,
    ) -> ExecutionTrace:
        trace = ExecutionTrace()
        counters = trace.launch("per-thread-scan")
        counters.occupancy = occupancy(self.device, resources)
        counters.add_global_read(float(model_n) * width)
        counters.add_global_write(float(self.device_threads * k) * width)
        # Every element: shared read of the heap root for the comparison.
        counters.add_shared(float(model_n) * width)
        # Scale measured insert behaviour from functional to model threads.
        thread_scale = self.device_threads / stats.threads
        model_inserts = stats.inserts * thread_scale
        model_events = stats.warp_insert_events * thread_scale
        update_depth = 2.0 * max(1.0, math.log2(max(k, 2)))
        counters.add_shared(model_inserts * update_depth * 2.0 * width)
        counters.divergent_iterations = model_events * update_depth
        trace.notes["inserts"] = model_inserts
        trace.notes["warp_insert_events"] = model_events

        reduce = trace.launch("per-thread-reduce")
        candidates = float(self.device_threads * k) * width
        reduce.add_global_read(candidates)
        reduce.add_global_write(float(k) * width)
        return trace
