"""Cost model for bitonic top-k (Section 7.2).

Each fused kernel is bound by the slower of its global and shared memory
phases:

    T_g = D_in / B_G + D_in / (x * B_G)
    T_k = sum_i  delta_i * (D_Ii + D_Oi) / B_S
    T_kernel = max(T_g, T_k)

where x is the per-kernel reduction factor (elements per thread) and the
delta_i come from the bank-conflict analysis of the kernel's combined
steps.  The model composes the SortReducer with the following
BitonicReducers over the geometrically shrinking data.

Like the paper's model it uses peak bandwidths and ignores launch
overheads, so it underestimates the measured times (Figure 17).
"""

from __future__ import annotations


import numpy as np

from repro.bitonic.kernels import build_trace
from repro.bitonic.network import next_pow2
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.costmodel.base import UNIFORM_FLOAT, CostModel, WorkloadProfile


class BitonicModel(CostModel):
    """Predicts bitonic top-k runtime from the kernel structure."""

    algorithm = "bitonic"

    def __init__(self, device=None, flags: OptimizationFlags = FULL):
        super().__init__(device)
        self.flags = flags

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        return 1 <= k <= 2048

    def predict_seconds(
        self,
        n: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
        profile: WorkloadProfile = UNIFORM_FLOAT,
    ) -> float:
        dtype = np.dtype(dtype)
        network_k = next_pow2(k)
        trace = build_trace(n, network_k, dtype.itemsize, self.flags, self.device)
        total = 0.0
        for kernel in trace.kernels:
            global_time = kernel.global_bytes / self.device.global_bandwidth
            shared_time = kernel.shared_bytes_weighted / self.device.shared_bandwidth
            total += max(global_time, shared_time)
        return total

    def kernel_breakdown(
        self, n: int, k: int, dtype: np.dtype = np.dtype(np.float32)
    ) -> list[tuple[str, float, float]]:
        """(name, T_g, T_k) per kernel — the Section 7.2 worked example."""
        dtype = np.dtype(dtype)
        network_k = next_pow2(k)
        trace = build_trace(n, network_k, dtype.itemsize, self.flags, self.device)
        breakdown = []
        for kernel in trace.kernels:
            breakdown.append(
                (
                    kernel.name,
                    kernel.global_bytes / self.device.global_bandwidth,
                    kernel.shared_bytes_weighted / self.device.shared_bandwidth,
                )
            )
        return breakdown
