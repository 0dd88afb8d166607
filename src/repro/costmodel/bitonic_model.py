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
:func:`bitonic_seconds` is that sum, written once: the approximate and
streaming models price their bitonic kernels with it too.
"""

from __future__ import annotations

import numpy as np

from repro.bitonic.kernels import build_trace
from repro.bitonic.network import next_pow2
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.costmodel.base import UNIFORM_FLOAT, CostModel, WorkloadProfile


def kernel_terms(
    n: int,
    network_k: int,
    width: int,
    flags: OptimizationFlags,
    device,
) -> list[tuple[str, float, float]]:
    """(name, T_g, T_k) of each fused kernel of the network's trace."""
    trace = build_trace(n, network_k, width, flags, device)
    return [
        (
            kernel.name,
            kernel.global_bytes / device.global_bandwidth,
            kernel.shared_bytes_weighted / device.shared_bandwidth,
        )
        for kernel in trace.kernels
    ]


def bitonic_seconds(
    n: int,
    network_k: int,
    width: int,
    flags: OptimizationFlags,
    device,
) -> float:
    """The Section 7.2 price: the sum over kernels of max(T_g, T_k)."""
    terms = kernel_terms(n, network_k, width, flags, device)
    total = 0.0
    for _, global_time, shared_time in terms:
        total += max(global_time, shared_time)
    return total


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
        width = np.dtype(dtype).itemsize
        return bitonic_seconds(n, next_pow2(k), width, self.flags, self.device)

    def kernel_breakdown(
        self, n: int, k: int, dtype: np.dtype = np.dtype(np.float32)
    ) -> list[tuple[str, float, float]]:
        """(name, T_g, T_k) per kernel — the Section 7.2 worked example."""
        width = np.dtype(dtype).itemsize
        return kernel_terms(n, next_pow2(k), width, self.flags, self.device)
