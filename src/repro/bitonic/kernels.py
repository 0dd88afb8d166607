"""Kernel-level cost accounting for bitonic top-k.

Builds the :class:`~repro.gpu.counters.ExecutionTrace` that the equivalent
CUDA kernels would generate for a given (n, k, key width, optimization
flags), following the kernel decomposition of Section 4.3:

* **naive** — one kernel per network step, all traffic in global memory;
* **shared memory** — one kernel per operator (local sort / merge /
  rebuild); each operator reads and writes global memory once and runs its
  steps in shared memory;
* **fused** — the SortReducer kernel (local sort + ``log2(B)`` in-kernel
  merge/rebuild phases) followed by BitonicReducer kernels (``log2(B)``
  rebuild/merge phases each), every kernel reducing the data by the
  elements-per-thread factor B.

Shared-memory traffic is conflict-weighted per round using the planner
(:mod:`repro.bitonic.plan`) and the bank model (:mod:`repro.gpu.banks`);
the in-kernel merge reads its partner runs through shared memory at
distance k.  Occupancy (shared memory and register pressure as functions
of B) derates global bandwidth, which is what makes B = 64 a detriment in
the Figure 8 sweep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.bitonic.network import local_sort_steps, rebuild_steps
from repro.bitonic.optimizations import OptimizationFlags
from repro.bitonic.plan import plan_rounds
from repro.errors import InvalidParameterError
from repro.gpu import faults
from repro.gpu.banks import single_step_conflict_factor
from repro.gpu.counters import ExecutionTrace, KernelCounters
from repro.gpu.device import DeviceSpec
from repro.gpu.occupancy import BlockResources, occupancy

#: Register overhead of the kernels beyond the B element registers.
_REGISTER_OVERHEAD = 24


def _merge_conflict_factor(k: int) -> float:
    """delta for the in-kernel merge access at comparison distance k."""
    return single_step_conflict_factor(max(k, 1))


def kernel_block_resources(
    flags: OptimizationFlags, word: int, device: DeviceSpec
) -> BlockResources:
    """Thread-block shape and resource usage of the fused kernels.

    Blocks of 256 threads each hold ``B * 256`` elements in shared memory
    (plus the padding column when enabled); the block size shrinks when B
    is large enough that a full block would exceed the 48 KiB limit.
    """
    elements = flags.elements_per_thread
    threads = 256
    while threads > device.warp_size:
        shared = elements * threads * word
        if flags.padding:
            shared += shared // device.shared_memory_banks
        if shared <= device.shared_memory_per_block:
            break
        threads //= 2
    shared = elements * threads * word
    if flags.padding:
        shared += shared // device.shared_memory_banks
    registers = elements * max(1, word // 4) + _REGISTER_OVERHEAD
    return BlockResources(
        threads=threads,
        shared_memory_bytes=shared,
        registers_per_thread=min(registers, device.registers_per_thread_limit),
    )


def _kernel_occupancy(
    flags: OptimizationFlags, word: int, device: DeviceSpec
) -> float:
    if not flags.kernel_fusion:
        return 1.0
    resources = kernel_block_resources(flags, word, device)
    return occupancy(device, resources)


@dataclass
class _SharedAccumulator:
    """Accumulates conflict-weighted shared words per kernel-input element."""

    words: float = 0.0
    weighted: float = 0.0

    def add_rounds(self, rounds, live_fraction: float) -> None:
        for round_ in rounds:
            self.words += round_.words_per_element * live_fraction
            self.weighted += (
                round_.words_per_element * round_.conflict_factor * live_fraction
            )

    def add(self, words: float, conflict_factor: float = 1.0) -> None:
        self.words += words
        self.weighted += words * conflict_factor


def _reduction_phases(
    shared: _SharedAccumulator,
    k: int,
    flags: OptimizationFlags,
    num_merges: int,
    start_with_rebuild: bool,
) -> None:
    """Account the in-kernel merge/rebuild phases of a fused kernel.

    ``live`` tracks the fraction of the kernel's input still in flight;
    each merge halves it.  Without partition reassignment the per-thread
    element count shrinks with the live data, capping how many steps a
    round can combine.
    """
    live = 1.0
    merge_delta = _merge_conflict_factor(k)
    for phase in range(num_merges):
        if start_with_rebuild or phase > 0:
            if flags.partition_reassignment:
                capacity = flags.elements_per_thread
            else:
                capacity = max(
                    2, int(flags.elements_per_thread * live)
                )
            rounds = plan_rounds(rebuild_steps(k), flags, elements_per_thread=capacity)
            shared.add_rounds(rounds, live)
        # Merge: read the live elements, write the surviving half.
        shared.add(1.5 * live, merge_delta)
        live /= 2.0
    if not start_with_rebuild:
        # SortReducer ends on a merge; the trailing rebuild belongs to the
        # next kernel, which starts with one.
        pass


def _fused_kernel_counters(
    trace: ExecutionTrace,
    name: str,
    input_elements: float,
    reduction_factor: int,
    k: int,
    word: int,
    flags: OptimizationFlags,
    device: DeviceSpec,
    is_sort_reducer: bool,
) -> float:
    """Add one fused kernel to the trace; returns its output element count."""
    counters = trace.launch(name)
    counters.occupancy = _kernel_occupancy(flags, word, device)
    output_elements = input_elements / reduction_factor
    counters.add_global_read(input_elements * word)
    counters.add_global_write(output_elements * word)

    shared = _SharedAccumulator()
    # Staging: every input element is written into shared memory once and
    # every surviving element is read back out for the global store.
    shared.add(1.0)
    shared.add(1.0 / reduction_factor)
    num_merges = int(math.log2(reduction_factor))
    if is_sort_reducer:
        shared.add_rounds(plan_rounds(local_sort_steps(k), flags), 1.0)
        _reduction_phases(shared, k, flags, num_merges, start_with_rebuild=False)
    else:
        _reduction_phases(shared, k, flags, num_merges, start_with_rebuild=True)
    counters.add_shared(shared.words * input_elements * word)
    # add_shared() tracks raw bytes; overwrite the weighted figure with the
    # accumulator's conflict-aware total.
    counters.shared_bytes_weighted = shared.weighted * input_elements * word
    return output_elements


def _unfused_trace(
    n: int, k: int, word: int, flags: OptimizationFlags, trace: ExecutionTrace
) -> None:
    """Per-step (naive) or per-operator (shared memory) kernel accounting."""
    sort_steps = local_sort_steps(k)
    if flags.shared_memory:
        counters = trace.launch("local-sort")
        counters.add_global_read(n * word)
        counters.add_global_write(n * word)
        shared = _SharedAccumulator()
        shared.add_rounds(plan_rounds(sort_steps, flags), 1.0)
        counters.add_shared(shared.words * n * word)
        counters.shared_bytes_weighted = shared.weighted * n * word
    else:
        for index, step in enumerate(sort_steps):
            counters = trace.launch(f"local-sort-step-{index}")
            counters.add_global_read(n * word)
            counters.add_global_write(n * word)

    live = float(n)
    while live > k:
        merge = trace.launch("merge")
        merge.add_global_read(live * word)
        merge.add_global_write(live / 2 * word)
        live /= 2
        if live <= k:
            break
        if flags.shared_memory:
            rebuild = trace.launch("rebuild")
            rebuild.add_global_read(live * word)
            rebuild.add_global_write(live * word)
            shared = _SharedAccumulator()
            shared.add_rounds(plan_rounds(rebuild_steps(k), flags), 1.0)
            rebuild.add_shared(shared.words * live * word)
            rebuild.shared_bytes_weighted = shared.weighted * live * word
        else:
            for index, step in enumerate(rebuild_steps(k)):
                counters = trace.launch(f"rebuild-step-{index}")
                counters.add_global_read(live * word)
                counters.add_global_write(live * word)


#: Distinct (n, k, word, flags, device) traces kept priced.
TRACE_CACHE_SIZE = 1024


def build_trace(
    n: int,
    k: int,
    word: int,
    flags: OptimizationFlags,
    device: DeviceSpec,
) -> ExecutionTrace:
    """Execution trace of a full bitonic top-k of n elements.

    ``n`` may be any positive count; the network operates on the next power
    of two (padding with sentinel values adds no memory traffic beyond the
    real elements, so we model traffic on ``n`` directly).

    The trace is a pure function of its arguments, so it is priced once
    (:func:`_priced`) and every call returns a fresh copy that callers may
    mutate.  Each kernel still launches through
    :meth:`~repro.gpu.counters.ExecutionTrace.launch`, in order, so every
    ``kernel-launch`` fault point fires once per call, cached or not.
    """
    if n <= 0 or k <= 0:
        raise InvalidParameterError("n and k must be positive")
    kernels, notes = _priced(n, k, word, flags, device)
    trace = ExecutionTrace(notes=dict(notes))
    for kernel in kernels:
        vars(trace.launch(kernel.name)).update(vars(kernel))
    return trace


@functools.lru_cache(maxsize=TRACE_CACHE_SIZE, typed=True)
def _priced(
    n: int,
    k: int,
    word: int,
    flags: OptimizationFlags,
    device: DeviceSpec,
) -> tuple[tuple[KernelCounters, ...], tuple[tuple[str, float], ...]]:
    """The frozen kernels and notes of one trace, built with fault
    injection suspended (:func:`build_trace` replays the launches)."""
    with faults.suspended():
        trace = _build(n, k, word, flags, device)
    return tuple(trace.kernels), tuple(trace.notes.items())


def _build(
    n: int,
    k: int,
    word: int,
    flags: OptimizationFlags,
    device: DeviceSpec,
) -> ExecutionTrace:
    trace = ExecutionTrace()
    if k >= n:
        counters = trace.launch("passthrough-sort")
        counters.add_global_read(n * word)
        counters.add_global_write(n * word)
        return trace

    if not flags.kernel_fusion:
        _unfused_trace(n, k, word, flags, trace)
        return trace

    reduction_rounds = max(1, math.ceil(math.log2(n / k)))
    per_kernel = int(math.log2(flags.elements_per_thread))
    live = float(n)
    rounds_done = 0
    kernel_index = 0
    while rounds_done < reduction_rounds:
        rounds_now = min(per_kernel, reduction_rounds - rounds_done)
        is_first = kernel_index == 0
        name = "SortReducer" if is_first else f"BitonicReducer-{kernel_index}"
        live = _fused_kernel_counters(
            trace,
            name,
            live,
            1 << rounds_now,
            k,
            word,
            flags,
            device,
            is_sort_reducer=is_first,
        )
        rounds_done += rounds_now
        kernel_index += 1
    trace.notes["kernels"] = kernel_index
    trace.notes["elements_per_thread"] = flags.elements_per_thread
    return trace


def memory_overhead_bytes(n: int, word: int, flags: OptimizationFlags) -> int:
    """Auxiliary global buffer the algorithm needs (Section 4.3 discussion).

    Out-of-place bitonic top-k ping-pongs through a buffer of size
    ``n / B`` — far below the full-size scratch of sort and the selection
    methods.
    """
    if not flags.kernel_fusion:
        return n * word
    return (n // flags.elements_per_thread) * word
