"""Scatter-gather execution of sharded top-k plans.

:class:`ShardedTopK` runs one top-k as N partition-parallel shards on N
*simulated* devices — a thread pool over the existing GPU simulator —
then k-way-merges the per-shard candidates into the exact global answer.

Execution proceeds in phases so fault injection stays deterministic:

1. **Launch admission** (coordinator thread, sequential): one
   ``"device-launch"`` fault point per shard, in shard order.  A shard
   whose launch is lost (an injected :class:`DeviceLostError`) is marked
   for redistribution; if every launch is lost the typed error surfaces
   — and composes with the surrounding :class:`~repro.plan.nodes.Fallback`
   chain exactly like any other device loss.
2. **Concurrent compute** (worker pool): surviving shards run in a
   :class:`~concurrent.futures.ThreadPoolExecutor`.  Worker threads see
   fresh context-var state — no fault injector and no tracer — so the
   functional compute is deterministic regardless of thread scheduling;
   all injection and all span emission stays on the coordinator.
3. **Redistribution** (admission sequential, compute pooled): each lost
   shard's range is split across the survivors; a survivor that is lost
   mid-recovery re-queues its piece, cascading until no device remains.
4. **Gather + merge** (coordinator): candidates cross simulated PCIe —
   a failed transfer is retried with simulated backoff
   (:class:`~repro.gpu.transfer.TransferRetries`) — and a final merge
   kernel reproduces the exact global order.

A *device group* (``devices=``) may be heterogeneous: shard i runs, and
its trace is priced, on ``devices[i]``, and ``devices[0]`` coordinates.
Mixed groups split rows in proportion to each device's modeled
throughput, so finish times equalize and a slower card still helps;
identical devices take the balanced split without consulting any cost
model.  A group entry may also be a :class:`~repro.cpu.spec.CpuSpec`
(the paper's closing "hybrid solutions" direction): that shard runs the
hand-optimized heap, weighs its memory-bound scan rate, is priced on the
coordinator, and — having no simulated device to lose — passes no
``"device-launch"`` fault point.  The coordinator must be a GPU.

Each shard answers with its *inner kernel* (the planner's winner at
per-shard scale) on its slice, and the same run's trace is what the
concurrent phase accounts.  Every exact kernel returns the canonical
total order (value descending, lower row first, NaN last), and so does
the k-way merge, which is what makes sharded results bit-equal to
single-device results, ties and NaN included.

The input is assumed device-resident and pre-partitioned — no PCIe
scatter is charged; only candidates (k values + row ids per shard) cross
the bus at gather time.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.algorithms.registry import create
from repro.cpu.pq_topk import HandPqTopK
from repro.cpu.spec import CpuSpec
from repro.errors import DeviceLostError, InvalidParameterError
from repro.gpu import faults
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec
from repro.gpu.timing import trace_time
from repro.gpu.transfer import TransferRetries
from repro.sharding.merge import merge_topk
from repro.sharding.partition import _validate_shards, partition_ranges

#: Default simulated device count for a bare (registry-built) instance.
DEFAULT_SHARDS = 2

#: Row-id bytes per gathered candidate (the 4-byte id of Section 6.6).
ROW_ID_BYTES = 4

#: Kernel names of the coordinator's own trace.
CONCURRENT_KERNEL = "shard-topk-concurrent"
REDISTRIBUTE_KERNEL = "shard-redistribute"
GATHER_KERNEL = "shard-gather"
MERGE_KERNEL = "shard-merge"


@dataclass
class ShardRun:
    """One shard's (or recovery piece's) finished work."""

    #: The simulated device that ran the piece.
    index: int
    start: int
    stop: int
    values: np.ndarray
    #: Global row indices (local indices + range start).
    indices: np.ndarray
    #: Simulated seconds of the shard's inner kernel trace.
    seconds: float


class ShardedTopK(TopKAlgorithm):
    """Partition-parallel top-k across N simulated devices.

    ``devices`` names the group explicitly and then fixes both the
    coordinator (``devices[0]``, a GPU) and the shard count
    (``len(devices)``); without it the group is ``shards`` copies of
    ``device``.  Entries after the first may be CPUs.
    """

    name = "sharded"

    def __init__(
        self,
        device: DeviceSpec | None = None,
        shards: int = DEFAULT_SHARDS,
        inner: str | None = None,
        flags=None,
        devices: list[DeviceSpec | CpuSpec] | None = None,
    ):
        if devices is not None:
            if not devices:
                raise InvalidParameterError("a device group needs a device")
            if isinstance(devices[0], CpuSpec):
                raise InvalidParameterError(
                    "devices[0] prices the gather and merge and must be a GPU"
                )
            device, shards = devices[0], len(devices)
        super().__init__(device)
        self.shards = _validate_shards(shards)
        self.devices = tuple(devices or (self.device,) * self.shards)
        #: Per-shard kernel name; None resolves the planner's winner at
        #: per-shard scale on first use.
        self.inner = inner
        self.flags = flags

    def run(self, data: np.ndarray, k: int, model_n: int | None = None) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n
        # A shard must hold at least one row; a bare instance on a tiny
        # input degrades to fewer effective shards instead of erroring.
        shards = min(self.shards, n)
        shard_model = max(1, -(-model // shards))
        inner_name = self._resolve_inner(shard_model, min(k, n // shards), data.dtype)
        ranges = partition_ranges(
            n,
            shards,
            self._throughput(
                self.devices[:shards], inner_name, shard_model, k, data.dtype
            ),
        )

        # Phase 1: sequential launch admission on the coordinator thread.
        lost: list[tuple[int, int, int]] = []
        alive: list[tuple[int, int, int]] = []
        for index, (start, stop) in enumerate(ranges):
            try:
                self._admit(index, f"shard#{index}")
            except DeviceLostError:
                lost.append((index, start, stop))
            else:
                alive.append((index, start, stop))
        if not alive:
            raise DeviceLostError(
                f"all {shards} shards lost at launch; no device left to "
                f"redistribute the work to",
                site="device-launch",
            )

        # Phase 2: surviving shards compute concurrently in the pool.
        primary = self._run_shards(data, k, model, n, inner_name, alive)
        recovered: list[ShardRun] = []
        recompute_seconds = 0.0
        if lost:
            recovered, recompute_seconds = self._redistribute(
                data,
                k,
                model,
                n,
                inner_name,
                lost,
                [index for index, _, _ in alive],
            )
        runs = primary + recovered

        values = np.concatenate([run.values for run in runs])
        rows = np.concatenate([run.indices for run in runs])
        merged_values, merged_rows = merge_topk(values, rows, k)

        trace = self._build_trace(
            data,
            k,
            model,
            shards,
            primary,
            lost,
            recovered,
            recompute_seconds,
            len(values),
        )
        self._observe(shards, runs, lost)
        return self._result(
            merged_values.copy(), merged_rows.copy(), trace, k, n, model
        )

    # -- shard compute ----------------------------------------------------

    def _resolve_inner(self, shard_model: int, local_k: int, dtype) -> str:
        """The per-shard kernel: pinned, or the planner's winner at
        per-shard scale (so large k routes past the comparison network's
        width limit exactly as a single device of that size would plan)."""
        local_k = min(max(1, local_k), shard_model)
        if self.inner is not None:
            probe = self._make_inner(self.inner, self.device)
            if probe.supports(shard_model, local_k, np.dtype(dtype)):
                return self.inner
        from repro.core.planner import TopKPlanner

        with obs.suspended(), faults.suspended():
            plan = TopKPlanner(self.device).choose(
                shard_model, local_k, np.dtype(dtype)
            )
        return plan.algorithm

    def _make_inner(self, name: str, device: DeviceSpec | CpuSpec) -> TopKAlgorithm:
        if isinstance(device, CpuSpec):
            return HandPqTopK(self.device, device)
        if name == "bitonic" and self.flags is not None:
            from repro.bitonic.topk import BitonicTopK

            return BitonicTopK(device, self.flags)
        return create(name, device)

    def _admit(self, index: int, detail: str) -> None:
        """Launch admission for shard ``index``: a GPU's launch may be
        lost; a CPU has no simulated device to lose."""
        if not isinstance(self.devices[index], CpuSpec):
            faults.fault_point("device-launch", detail)

    @staticmethod
    def _throughput(
        devices: tuple[DeviceSpec | CpuSpec, ...],
        inner_name: str,
        shard_model: int,
        k: int,
        dtype,
    ) -> list[float] | None:
        """Each device's modeled rows per second on a balanced shard, or
        None for a homogeneous group (which then needs no cost model).

        The inner kernel's Section 7 model prices the shard; a kernel
        without one falls back to the planner's best prediction.  A CPU
        streams its shard at memory bandwidth (the heap's uniform-data
        regime)."""
        if len(set(devices)) == 1:
            return None
        from repro.core.planner import TopKPlanner
        from repro.costmodel.calibration import base_model_for

        dtype = np.dtype(dtype)
        local_k = min(k, shard_model)
        throughput = []
        with obs.suspended(), faults.suspended():
            for device in devices:
                if isinstance(device, CpuSpec):
                    throughput.append(device.memory_bandwidth / dtype.itemsize)
                    continue
                model = base_model_for(inner_name, device)
                if model is not None and model.supports(shard_model, local_k, dtype):
                    seconds = model.predict_seconds(shard_model, local_k, dtype)
                else:
                    plan = TopKPlanner(device).choose(shard_model, local_k, dtype)
                    seconds = plan.predicted_seconds
                throughput.append(shard_model / seconds)
        return throughput

    def _run_shards(
        self,
        data: np.ndarray,
        k: int,
        model: int,
        n: int,
        inner_name: str,
        pieces: list[tuple[int, int, int]],
    ) -> list[ShardRun]:
        """Run every ``(index, start, stop)`` piece in the worker pool.

        Workers are functionally pure: fresh thread context means no
        injector and no tracer fire off the coordinator, and
        ``pool.map`` preserves submission order, so results are
        deterministic under any scheduling.
        """

        def compute(piece: tuple[int, int, int]) -> ShardRun:
            index, start, stop = piece
            slice_ = data[start:stop]
            local_k = min(k, len(slice_))
            shard_model = max(local_k, int(round(model * len(slice_) / n)))
            device = self.devices[index]
            inner = self._make_inner(inner_name, device)
            result = inner.run(slice_, local_k, model_n=shard_model)
            if isinstance(device, CpuSpec):
                device = self.device  # a CPU shard is priced on devices[0]
            return ShardRun(
                index=index,
                start=start,
                stop=stop,
                values=result.values,
                indices=result.indices + start,
                seconds=trace_time(result.trace, device).total,
            )

        with ThreadPoolExecutor(max_workers=min(len(pieces), 16)) as pool:
            return list(pool.map(compute, pieces))

    # -- shard-loss recovery ----------------------------------------------

    def _redistribute(
        self,
        data: np.ndarray,
        k: int,
        model: int,
        n: int,
        inner_name: str,
        lost: list[tuple[int, int, int]],
        alive: list[int],
    ) -> tuple[list[ShardRun], float]:
        """Split every lost shard's range across the survivors.

        Admission is sequential on the coordinator (deterministic fault
        schedule); the admitted pieces then compute in the pool.  A
        survivor lost mid-recovery re-queues its piece, so recovery
        tolerates cascading losses until no device remains.  Returns the
        recovered runs and the recovery's recompute seconds (the busiest
        survivor's extra work, which the trace accounts).
        """
        pending: deque[tuple[int, int]] = deque()
        for _, start, stop in lost:
            bounds = np.linspace(start, stop, len(alive) + 1).astype(int)
            for piece_start, piece_stop in zip(bounds, bounds[1:]):
                if piece_stop > piece_start:
                    pending.append((int(piece_start), int(piece_stop)))
        assignments: list[tuple[int, int, int]] = []
        rotation = 0
        while pending:
            if not alive:
                raise DeviceLostError(
                    "all shards lost during redistribution",
                    site="device-launch",
                )
            piece_start, piece_stop = pending.popleft()
            target = alive[rotation % len(alive)]
            rotation += 1
            try:
                self._admit(target, f"shard#{target}:redistribute")
            except DeviceLostError:
                alive.remove(target)
                pending.append((piece_start, piece_stop))
                continue
            assignments.append((target, piece_start, piece_stop))
        recovered = self._run_shards(data, k, model, n, inner_name, assignments)
        per_target: dict[int, float] = {}
        for run in recovered:
            per_target[run.index] = per_target.get(run.index, 0.0) + run.seconds
        recompute = max(per_target.values(), default=0.0)
        return recovered, recompute

    # -- accounting -------------------------------------------------------

    def _build_trace(
        self,
        data: np.ndarray,
        k: int,
        model: int,
        shards: int,
        primary: list[ShardRun],
        lost: list[tuple[int, int, int]],
        recovered: list[ShardRun],
        recompute_seconds: float,
        num_candidates: int,
    ) -> ExecutionTrace:
        """The coordinator's own trace.

        The concurrent kernel's time is the *slowest primary shard* (the
        devices run in parallel); recovery rides in a separate
        redistribute kernel so a fault-free run's trace never pays for
        it.  ``trace.launch`` is the standard ``"kernel-launch"``
        injection site, so the coordinator itself stays fault-injectable
        and composes with the resilient executor's retry loop; the gather
        is also a ``"pcie-transfer"`` site whose retries' backoff rides
        in a trailing backoff kernel.
        """
        n = len(data)
        itemsize = data.dtype.itemsize
        candidate_bytes = float(num_candidates) * (itemsize + ROW_ID_BYTES)
        trace = ExecutionTrace()
        concurrent = trace.launch(CONCURRENT_KERNEL)
        concurrent.fixed_seconds = max(run.seconds for run in primary)
        if lost:
            # Only rows sent to a GPU cross PCIe; a CPU reads host memory.
            moved_rows = sum(
                run.stop - run.start
                for run in recovered
                if not isinstance(self.devices[run.index], CpuSpec)
            )
            moved_bytes = float(model) * (moved_rows / n) * itemsize
            redistribute = trace.launch(REDISTRIBUTE_KERNEL)
            redistribute.fixed_seconds = (
                moved_bytes / self.device.pcie_bandwidth + recompute_seconds
            )
        transfers = TransferRetries()
        transfers.cross(GATHER_KERNEL)
        gather = trace.launch(GATHER_KERNEL)
        gather.fixed_seconds = candidate_bytes / self.device.pcie_bandwidth
        merge = trace.launch(MERGE_KERNEL)
        merge.add_global_read(candidate_bytes)
        merge.add_global_write(float(k) * (itemsize + ROW_ID_BYTES))
        transfers.charge(trace, self.name)
        trace.notes["sharding.shards"] = float(shards)
        trace.notes["sharding.shards_lost"] = float(len(lost))
        trace.notes["sharding.redistributed"] = float(len(recovered))
        trace.notes["sharding.max_shard_ms"] = concurrent.fixed_seconds * 1e3
        return trace

    def _observe(
        self,
        shards: int,
        runs: list[ShardRun],
        lost: list[tuple[int, int, int]],
    ) -> None:
        """Per-shard spans and metrics, emitted post-hoc in shard order
        from the coordinator (workers never touch the tracer), so they
        nest under the wrapper's ``algorithm:sharded`` span."""
        for run in sorted(runs, key=lambda r: (r.index, r.start)):
            with obs.span(
                f"shard:{run.index}",
                category="shard",
                rows=run.stop - run.start,
                start=run.start,
                stop=run.stop,
            ) as span:
                span.set(simulated_ms=run.seconds * 1e3)
        registry = obs.active_metrics()
        if registry is not None:
            registry.gauge("sharding.shards").set(shards)
            registry.counter("sharding.shards_executed").inc(len(runs))
            if lost:
                registry.counter("resilience.devices_lost").inc(len(lost))
