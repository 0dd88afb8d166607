"""Out-of-core top-k: data larger than GPU memory (Section 4.3 discussion).

The paper notes that top-k's reductive nature makes oversized inputs easy:
"process the data in memory-size chunks and overlap computation with
transfer".  This module implements that pipeline:

1. split the input into chunks that fit the device's global memory budget;
2. stream each chunk over PCIe and reduce it to its top-k candidates on
   the device (any registered algorithm; bitonic by default);
3. keep only ``k`` candidates per chunk on the device (k * chunks values in
   total — negligible), and reduce them to the final top-k at the end.

Timing follows the classic two-stage software pipeline: with overlap
enabled, chunk i+1 uploads while chunk i computes, so the steady-state cost
per chunk is ``max(transfer, compute)`` with one transfer of pipeline fill;
without overlap the stages serialize.  The execution trace carries one
fixed-time kernel per pipeline stage so the usual reporting applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.algorithms.registry import create
from repro.bitonic.network import next_pow2
from repro.bitonic.topk import BitonicTopK
from repro.gpu import faults
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import trace_time
from repro.gpu.transfer import TransferRetries


@dataclass(frozen=True)
class ChunkPlan:
    """How an oversized input is streamed through the device."""

    num_chunks: int
    chunk_elements: int
    transfer_seconds_per_chunk: float
    compute_seconds_per_chunk: float
    overlap: bool

    @property
    def pipeline_seconds(self) -> float:
        """Total pipeline time for all chunks."""
        transfer = self.transfer_seconds_per_chunk
        compute = self.compute_seconds_per_chunk
        if not self.overlap:
            return self.num_chunks * (transfer + compute)
        if self.num_chunks == 1:
            return transfer + compute
        steady = (self.num_chunks - 1) * max(transfer, compute)
        return transfer + steady + compute

    @property
    def overlap_efficiency(self) -> float:
        """Achieved fraction of the ideal (fully hidden) pipeline time."""
        ideal = self.num_chunks * max(
            self.transfer_seconds_per_chunk, self.compute_seconds_per_chunk
        )
        return ideal / self.pipeline_seconds


class ChunkedTopK:
    """Streamed top-k for inputs larger than device memory."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        algorithm: str = "bitonic",
        overlap: bool = True,
        memory_budget_bytes: int | None = None,
    ):
        self.device = device or get_device()
        self.algorithm_name = algorithm
        self.overlap = overlap
        # Double buffering: half the budget per resident chunk.
        budget = memory_budget_bytes or int(self.device.global_memory_size * 0.9)
        self.chunk_budget = budget // 2

    def plan(self, n: int, k: int, dtype: np.dtype) -> ChunkPlan:
        """Pipeline plan for an input of ``n`` elements of ``dtype``."""
        with faults.suspended():
            return self._plan(n, k, dtype)

    def _plan(self, n: int, k: int, dtype: np.dtype) -> ChunkPlan:
        dtype = np.dtype(dtype)
        chunk_elements = min(n, max(k, self.chunk_budget // dtype.itemsize))
        num_chunks = math.ceil(n / chunk_elements)
        transfer = self.device.pcie_transfer_time(chunk_elements * dtype.itemsize)
        algorithm = create(self.algorithm_name, self.device)
        probe = _chunk_compute_seconds(algorithm, chunk_elements, k, dtype, self.device)
        return ChunkPlan(
            num_chunks=num_chunks,
            chunk_elements=chunk_elements,
            transfer_seconds_per_chunk=transfer,
            compute_seconds_per_chunk=probe,
            overlap=self.overlap,
        )

    def run(self, data: np.ndarray, k: int, model_n: int | None = None) -> TopKResult:
        """Compute the exact top-k of ``data`` through the chunk pipeline."""
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n
        with obs.span(
            "chunked",
            category="scheduler",
            n=n,
            k=k,
            model_n=model,
            algorithm=self.algorithm_name,
        ) as span:
            plan = self.plan(model, k, data.dtype)
            span.set(chunks=plan.num_chunks)
            registry = obs.active_metrics()
            if registry is not None:
                registry.gauge("chunked.num_chunks").set(plan.num_chunks)
                registry.gauge("chunked.overlap_efficiency").set(
                    plan.overlap_efficiency
                )

            algorithm = create(self.algorithm_name, self.device)
            functional_chunk = max(k, math.ceil(n / plan.num_chunks))
            candidate_values: list[np.ndarray] = []
            candidate_rows: list[np.ndarray] = []
            # Per-chunk runs execute functionally; their cost is already
            # accounted by the pipeline trace below, so suspend observation
            # to avoid double-counting their kernels.
            transfers = TransferRetries()
            with obs.suspended():
                for chunk_index, start in enumerate(range(0, n, functional_chunk)):
                    chunk = data[start : start + functional_chunk]
                    chunk_k = min(k, len(chunk))
                    # Stage the chunk over PCIe.
                    transfers.cross(f"chunk-{chunk_index}")
                    result = algorithm.run(chunk, chunk_k)
                    candidate_values.append(result.values)
                    candidate_rows.append(result.indices + start)
            from repro.sharding.merge import merge_topk

            values, rows = merge_topk(
                np.concatenate(candidate_values),
                np.concatenate(candidate_rows),
                k,
            )

            trace = ExecutionTrace()
            pipeline = trace.launch("chunk-pipeline")
            pipeline.fixed_seconds = plan.pipeline_seconds
            final = trace.launch("final-reduce")
            final.add_global_read(float(plan.num_chunks * k) * data.dtype.itemsize)
            final.add_global_write(float(k) * data.dtype.itemsize)
            trace.notes["chunks"] = plan.num_chunks
            trace.notes["overlap_efficiency"] = plan.overlap_efficiency
            transfers.charge(trace, f"chunked-{self.algorithm_name}")
            from repro.observability.instrument import record_trace

            span.set(simulated_ms=record_trace(trace, self.device))
        return TopKResult(
            values=values,
            indices=rows,
            trace=trace,
            algorithm=f"chunked-{self.algorithm_name}",
            k=k,
            n=n,
            model_n=model,
        )


def _chunk_compute_seconds(
    algorithm: TopKAlgorithm,
    chunk_elements: int,
    k: int,
    dtype: np.dtype,
    device: DeviceSpec,
) -> float:
    """On-device time to reduce one resident chunk to its top-k."""
    if isinstance(algorithm, BitonicTopK):
        from repro.bitonic.kernels import build_trace

        network_k = next_pow2(k)
        trace = build_trace(
            chunk_elements, network_k, dtype.itemsize, algorithm.flags, device
        )
        return trace_time(trace, device).total
    # Fall back to a tiny probe run extrapolated to the chunk size.  The
    # probe is a planning estimate, not real work — keep it out of traces.
    probe_n = min(chunk_elements, 1 << 14)
    rng = np.random.default_rng(0)
    if np.dtype(dtype).kind == "f":
        probe = rng.random(probe_n).astype(dtype)
    else:
        probe = rng.integers(0, 2**31, probe_n).astype(dtype)
    with obs.suspended():
        result = algorithm.run(probe, min(k, probe_n), model_n=chunk_elements)
    return result.simulated_time(device).total


def chunked_topk(
    data: np.ndarray,
    k: int,
    device: DeviceSpec | None = None,
    algorithm: str = "bitonic",
    overlap: bool = True,
    memory_budget_bytes: int | None = None,
    model_n: int | None = None,
) -> TopKResult:
    """Convenience wrapper around :class:`ChunkedTopK`."""
    runner = ChunkedTopK(device, algorithm, overlap, memory_budget_bytes)
    return runner.run(data, k, model_n=model_n)
