"""Hybrid CPU + GPU top-k (the paper's closing future-work direction).

The conclusion suggests "hybrid solutions [that] involve multiple devices
(CPUs and GPUs)".  Because top-k is embarrassingly splittable — partition
the input, take each partition's top-k, reduce — the two processors can
work on disjoint slices concurrently.  The only decision is the split
fraction, which the cost models make analytic:

    minimize  max( T_gpu(f * n),  T_cpu((1 - f) * n) )

Both sides are (to first order) linear in their share, so the optimum
equalizes the two finish times: ``f* = t_cpu / (t_cpu + t_gpu)`` where
``t_x`` is the device's per-element cost.  The implementation estimates the
per-element costs from the cost models, splits, runs both sides
functionally, and reduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKResult, validate_topk_args
from repro.algorithms.keys import canonical_topk, encode
from repro.bitonic.topk import BitonicTopK
from repro.costmodel.bitonic_model import BitonicModel
from repro.cpu.pq_topk import HandPqTopK
from repro.cpu.spec import I7_6900, CpuSpec
from repro.errors import FaultError, InvalidParameterError
from repro.gpu import faults
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device


@dataclass(frozen=True)
class HybridSplit:
    """The planned division of work."""

    gpu_fraction: float
    gpu_seconds: float
    cpu_seconds: float

    @property
    def makespan(self) -> float:
        """Finish time of the slower side (both run concurrently)."""
        return max(self.gpu_seconds, self.cpu_seconds)


class HybridTopK:
    """Split a top-k between the simulated GPU and CPU."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        cpu: CpuSpec = I7_6900,
    ):
        self.device = device or get_device()
        self.cpu = cpu
        self._gpu_algorithm = BitonicTopK(self.device)
        self._cpu_algorithm = HandPqTopK(self.device, cpu)

    def plan_split(self, n: int, k: int, dtype: np.dtype) -> HybridSplit:
        """Cost-model-optimal split fraction for (n, k)."""
        if n <= 0 or k <= 0:
            raise InvalidParameterError("n and k must be positive")
        dtype = np.dtype(dtype)
        probe = max(n, 1 << 20)
        gpu_per_element = BitonicModel(self.device).predict_seconds(
            probe, min(k, 2048), dtype
        ) / probe
        # CPU per-element cost: memory-bound scan (the uniform-data regime).
        cpu_per_element = dtype.itemsize / self.cpu.memory_bandwidth
        fraction = cpu_per_element / (cpu_per_element + gpu_per_element)
        gpu_share = fraction * n
        cpu_share = n - gpu_share
        return HybridSplit(
            gpu_fraction=fraction,
            gpu_seconds=gpu_share * gpu_per_element,
            cpu_seconds=cpu_share * cpu_per_element,
        )

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n
        with obs.span(
            "hybrid-cpu-gpu", category="scheduler", n=n, k=k, model_n=model
        ) as span:
            split = self.plan_split(model, k, data.dtype)
            span.set(gpu_fraction=split.gpu_fraction)
            registry = obs.active_metrics()
            if registry is not None:
                registry.gauge("hybrid.gpu_fraction").set(split.gpu_fraction)

            boundary = int(round(split.gpu_fraction * n))
            boundary = min(max(boundary, 0), n)
            parts: list[TopKResult] = []
            offsets: list[int] = []
            # The inner runs execute functionally; their kernels are
            # re-accounted by this scheduler's own concurrent/reduce trace,
            # so suspend observation to avoid double-counting them.
            gpu_lost = False
            with obs.suspended():
                if boundary >= 1:
                    gpu_k = min(k, boundary)
                    try:
                        faults.fault_point("device-launch", "hybrid-gpu-side")
                        parts.append(
                            self._gpu_algorithm.run(data[:boundary], gpu_k)
                        )
                        offsets.append(0)
                    except FaultError:
                        # GPU side lost mid-run: the CPU absorbs the whole
                        # input instead of just its share.  Slower — the
                        # trace accounting below charges the CPU-only cost
                        # — but the answer stays exact.
                        gpu_lost = True
                        boundary = 0
                if n - boundary >= 1:
                    cpu_k = min(k, n - boundary)
                    with faults.suspended():
                        parts.append(
                            self._cpu_algorithm.run(data[boundary:], cpu_k)
                        )
                    offsets.append(boundary)

            values = np.concatenate([part.values for part in parts])
            rows = np.concatenate(
                [part.indices + offset for part, offset in zip(parts, offsets)]
            )
            order = canonical_topk(encode(values), rows, k)

            trace = ExecutionTrace()
            concurrent = trace.launch("hybrid-concurrent")
            if gpu_lost:
                # The CPU redid the entire input after the GPU died; charge
                # the CPU-only scan cost on top of the wasted GPU share.
                cpu_per_element = (
                    data.dtype.itemsize / self.cpu.memory_bandwidth
                )
                concurrent.fixed_seconds = (
                    split.gpu_seconds + model * cpu_per_element
                )
            else:
                concurrent.fixed_seconds = split.makespan
            reduce = trace.launch("hybrid-reduce")
            reduce.add_global_read(float(2 * k) * data.dtype.itemsize)
            trace.notes["gpu_fraction"] = split.gpu_fraction
            trace.notes["gpu_seconds"] = split.gpu_seconds
            trace.notes["cpu_seconds"] = split.cpu_seconds
            trace.notes["gpu_lost"] = float(gpu_lost)
            if gpu_lost:
                registry = obs.active_metrics()
                if registry is not None:
                    registry.counter(
                        "resilience.devices_lost", scheduler="hybrid-cpu-gpu"
                    ).inc()
            from repro.observability.instrument import record_trace

            span.set(simulated_ms=record_trace(trace, self.device))
        return TopKResult(
            values=values[order].copy(),
            indices=rows[order].copy(),
            trace=trace,
            algorithm="hybrid-cpu-gpu",
            k=k,
            n=n,
            model_n=model,
        )
