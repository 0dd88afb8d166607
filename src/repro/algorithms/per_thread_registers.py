"""Register-based per-thread top-k (Appendix A).

Functionally identical to :class:`~repro.algorithms.per_thread.PerThreadTopK`
(the same lockstep engine produces the same decisions), but the private
top-k buffer lives in *registers* instead of shared memory.  GPUs cannot
index registers dynamically, so the buffer is maintained as an unordered
array scanned linearly on every insert (the Appendix A code keeps
``minIndex``/``minValue`` and rescans the buffer to find the new minimum).

Cost consequences, which produce the Figure 18 shapes:

* an insert costs ``k`` serialized iterations for the warp (linear rescan)
  instead of the heap's ``2 log2 k`` — updates are *more expensive in the
  list than in the heap*, so the gap to the shared-memory variant widens
  on the increasing distribution and vanishes on the decreasing one;
* the compiler only keeps the buffer in registers while it fits; beyond
  the per-thread register budget the spilled fraction lives in off-chip
  local memory, so every rescan streams it through global bandwidth — the
  sharp slope from k = 32 to k = 64;
* occupancy is limited by the register file: ``k`` live registers per
  thread cut resident warps well before shared memory would.
"""

from __future__ import annotations

import math

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.algorithms.per_thread import DEVICE_THREADS, _final_topk, lockstep_topk
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec
from repro.gpu.occupancy import register_spill_fraction

#: Registers the kernel needs beyond the k buffer entries.
_REGISTER_OVERHEAD = 24

#: Per-thread register budget the compiler targets before spilling.  Real
#: compilers cap kernels near 64-128 registers to preserve occupancy; 64
#: reproduces the paper's observed spill onset between k = 32 and k = 64.
_REGISTER_BUDGET = 64


class PerThreadRegisterTopK(TopKAlgorithm):
    """Appendix A: per-thread top-k with a register-resident buffer."""

    name = "per-thread-registers"

    def __init__(
        self, device: DeviceSpec | None = None, device_threads: int = DEVICE_THREADS
    ):
        super().__init__(device)
        self.device_threads = device_threads

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        # The buffer can always be *allocated* (it spills to local memory);
        # the failure mode is performance, not capacity.
        return True

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n
        width = data.dtype.itemsize

        model_stream = max(k, math.ceil(model / self.device_threads))
        functional_threads = max(1, min(self.device_threads, round(n / model_stream)))
        with obs.span(
            "phase:register-scan",
            category="phase",
            threads=functional_threads,
            n=n,
            k=k,
        ) as phase:
            _, state_indices, stats = lockstep_topk(data, k, functional_threads)
            phase.set(inserts=stats.inserts)
        values, indices = _final_topk(data, state_indices, k)

        trace = ExecutionTrace()
        counters = trace.launch("per-thread-registers-scan")
        counters.add_global_read(float(model) * width)
        counters.add_global_write(float(self.device_threads * k) * width)

        thread_scale = self.device_threads / stats.threads
        model_inserts = stats.inserts * thread_scale
        model_events = stats.warp_insert_events * thread_scale
        # Linear rescan: k warp-iterations per insert event.
        counters.divergent_iterations = model_events * float(k)

        buffer_registers = k * max(1, width // 4) + _REGISTER_OVERHEAD
        spill = register_spill_fraction(buffer_registers, _REGISTER_BUDGET)
        if spill > 0.0:
            # The spilled slice of the buffer lives in local (off-chip)
            # memory and is re-streamed on every insert's rescan.
            counters.add_global_read(model_inserts * spill * k * width)
            counters.add_global_write(model_inserts * spill * width)
        # Register pressure limits resident warps.
        resident_threads = self.device.registers_per_sm / min(
            buffer_registers, self.device.registers_per_thread_limit
        )
        counters.occupancy = max(
            1.0 / 64.0, min(1.0, resident_threads / self.device.max_threads_per_sm)
        )
        trace.notes["inserts"] = model_inserts
        trace.notes["spill_fraction"] = spill

        reduce = trace.launch("per-thread-registers-reduce")
        reduce.add_global_read(float(self.device_threads * k) * width)
        reduce.add_global_write(float(k) * width)
        return self._result(values, indices, trace, k, n, model_n)
