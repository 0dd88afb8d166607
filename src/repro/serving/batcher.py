"""Cross-query batching: fuse compatible in-flight queries into one launch.

The paper's own motivation for the batched kernel (TensorFlow/ArrayFire
want the batched form so per-row launches amortize) applied to *serving*:
when many small independent top-k queries are in flight at once, queries
that fit one tile are answered by a single
:func:`~repro.core.batched.batched_topk` launch — one fused execution
trace instead of N single-row traces.

Eligibility is decided on the plan IR: every planned request derives a
:class:`~repro.plan.Batch` compatibility node (:func:`repro.plan.batch_key`:
the tile, the recall expectation, the planned approximate configuration,
and the fused kernel family), and two requests share a bucket iff their
Batch nodes **fingerprint identically** and the plan cache picked a
*batchable* algorithm — the bitonic network
(:func:`~repro.core.batched.batched_topk`) or the RadiK-style radix select
(:func:`~repro.algorithms.radik.batched_radik_topk`).  A bitonic tile is a
padded width ``next_pow2(n)`` and a key layout, so rows of any n inside
one width, any k, and float32, int32 or uint32 data share a
``(rows, width)`` tile; a radix tile is one exact n, dtype and
``network_k = next_pow2(k)``.  The kernel family rides in the Batch node,
so bitonic-planned and radix-planned queries never share a launch: each
fused kernel *is* its algorithm.

A fused launch runs at the largest ``network_k`` of its riders, and each
rider takes its own k-prefix (both kernels emit rows in canonical
descending order).  A bitonic bucket whose riders need different network
widths is split by ``network_k`` only when the simulated clock prices the
split launches cheaper than the one fused launch (:func:`launch_price_ms`,
memoized); see ``docs/serving.md``.

A batch that hits an injected device fault is not failed: it falls back to
per-query execution through :class:`~repro.resilience.ResilientExecutor`,
whose retry/fallback chain ends on the CPU heap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import observability as obs
from repro.algorithms.radik import batched_radik_topk
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.core.batched import RaggedRows, batched_topk, batched_trace
from repro.costmodel.base import UNIFORM_FLOAT, WorkloadProfile
from repro.errors import FaultError, ResourceExhaustedError
from repro.gpu import faults
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import trace_time
from repro.observability.metrics import MetricsRegistry
from repro.plan import (
    BATCHABLE_ALGORITHM,
    BATCHABLE_ALGORITHMS,
    Batch,
    BoundPlan,
    TopKPlan,
    batch_key,
    bind_plan,
)

__all__ = [
    "BATCHABLE_ALGORITHM",
    "BATCHABLE_ALGORITHMS",
    "BatchKey",
    "CrossQueryBatcher",
    "QueryOutcome",
    "ServingRequest",
]
from repro.plan import network_k as network_k  # re-exported serving helper
from repro.resilience.executor import ResilientExecutor
from repro.serving.plan_cache import PlanCache

#: Largest number of queries fused into one batched launch; grouping
#: chunks larger backlogs into consecutive launches of at most this size.
DEFAULT_MAX_BATCH = 128

#: Distinct fused launches kept priced by :func:`launch_price_ms`.
PRICE_CACHE_SIZE = 1024

#: Backwards-compatible alias: the batch compatibility key *is* the plan
#: IR's Batch node now; requests group on its fingerprint.
BatchKey = Batch


@functools.lru_cache(maxsize=PRICE_CACHE_SIZE)
def launch_price_ms(
    key: Batch,
    network_k: int,
    rows: int,
    itemsize: int,
    flags: OptimizationFlags,
    device: DeviceSpec,
) -> float:
    """Simulated ms of one fused bitonic launch of ``rows`` riders of
    ``key``'s tile at ``network_k``, priced from its trace
    (:func:`~repro.core.batched.batched_trace`)."""
    with faults.suspended():
        trace = batched_trace(key.width, network_k, itemsize, rows, flags, device)
        return trace_time(trace, device).total_ms


@dataclass
class ServingRequest:
    """One in-flight top-k query inside the serving layer."""

    data: np.ndarray
    k: int
    #: Resolution target for the answer (a concurrent.futures.Future when
    #: submitted through the scheduler; None when executed synchronously).
    future: object | None = None
    #: Fault injector active in the submitting thread, re-installed around
    #: execution so injection crosses the thread boundary.
    injector: object | None = None
    #: Filled by the dispatcher from the plan cache.
    plan: TopKPlan | None = None
    #: The cached executable (plan + instantiated kernel); hits skip
    #: registry lookup and kernel construction entirely.
    bound: BoundPlan | None = None
    #: Minimum acceptable recall for this query (1.0 = exact only).
    recall_target: float = 1.0
    #: Wall-clock (``time.perf_counter()``) and simulated timestamps taken
    #: at submit; the scheduler turns them into queue-wait attribution at
    #: dispatch.  None for requests executed without queuing.
    submitted_wall: float | None = None
    submitted_sim_ms: float | None = None
    #: Submit→dispatch latency, filled by the scheduler at dispatch time.
    queue_wait_wall_ms: float = 0.0
    queue_wait_sim_ms: float = 0.0
    #: SLO annotations (None/defaults outside the SLO serving layer): the
    #: absolute simulated-time deadline, the tenant QoS class name, and —
    #: when the scheduler lowered ``recall_target`` under pressure — the
    #: degradation flag plus the advertised recall floor of the degraded
    #: configuration.
    deadline_ms: float | None = None
    qos: str | None = None
    degraded: bool = False
    expected_recall: float = 1.0

    @property
    def key(self) -> Batch:
        """The request's :class:`~repro.plan.Batch` compatibility node."""
        if self.plan is not None:
            return self.plan.batch_node(
                n=len(self.data), k=self.k, dtype=self.data.dtype
            )
        return batch_key(
            len(self.data), self.k, self.data.dtype, recall_target=self.recall_target
        )

    @property
    def batchable(self) -> bool:
        return self.plan is not None and self.plan.algorithm in BATCHABLE_ALGORITHMS


@dataclass
class QueryOutcome:
    """A served query's answer plus its execution accounting."""

    values: np.ndarray
    indices: np.ndarray
    k: int
    n: int
    algorithm: str
    plan: TopKPlan
    batched: bool = False
    batch_size: int = 1
    #: Simulated milliseconds of the launch that produced this answer (the
    #: *fused* total for a batched query — shared across the whole batch).
    simulated_ms: float = 0.0
    fell_back: bool = False
    #: Submit→dispatch latency carried over from the request.
    queue_wait_wall_ms: float = 0.0
    queue_wait_sim_ms: float = 0.0
    #: Whether the SLO scheduler served this answer at a lowered recall
    #: target, and the recall floor the chosen configuration advertises
    #: (1.0 for exact answers).
    degraded: bool = False
    expected_recall: float = 1.0

    @classmethod
    def of(
        cls,
        request: ServingRequest,
        values: np.ndarray,
        indices: np.ndarray,
        algorithm: str,
        simulated_ms: float,
        **flags,
    ) -> QueryOutcome:
        """The outcome of ``request``; ``flags`` are the batching and
        fallback fields, and everything else comes from the request."""
        return cls(
            values=values,
            indices=indices,
            k=request.k,
            n=len(request.data),
            algorithm=algorithm,
            plan=request.plan,
            simulated_ms=simulated_ms,
            queue_wait_wall_ms=request.queue_wait_wall_ms,
            queue_wait_sim_ms=request.queue_wait_sim_ms,
            degraded=request.degraded,
            expected_recall=request.expected_recall,
            **flags,
        )

    @property
    def simulated_share_ms(self) -> float:
        """This query's per-query share of its launch's simulated time."""
        return self.simulated_ms / max(1, self.batch_size)


class CrossQueryBatcher:
    """Plans, groups, and executes serving requests.

    Pure synchronous logic — the thread scheduler drives it, and tests can
    call it directly.
    """

    def __init__(
        self,
        plan_cache: PlanCache | None = None,
        device: DeviceSpec | None = None,
        flags=None,
        max_batch: int = DEFAULT_MAX_BATCH,
        metrics: MetricsRegistry | None = None,
        profile: WorkloadProfile = UNIFORM_FLOAT,
    ):
        self.device = device or get_device()
        # `is not None`, not `or`: an empty PlanCache is falsy (len == 0).
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(device=self.device, metrics=metrics)
        )
        self.flags = flags if flags is not None else FULL
        self.max_batch = max(1, max_batch)
        self.metrics = metrics
        self.profile = profile
        # Running totals for stats()/the bench, independent of the registry.
        self.batches = 0
        self.batched_queries = 0
        self.single_queries = 0
        self.batch_fallbacks = 0
        self.fallback_queries = 0
        self.simulated_ms_total = 0.0

    # -- planning and grouping -------------------------------------------

    def plan(self, request: ServingRequest) -> TopKPlan:
        """Attach the (cached) bound plan for the request's shape.

        A cache hit hands back a ready-to-run :class:`BoundPlan` — the
        request skips re-planning, registry lookup, and kernel
        construction entirely on the single-query path.
        """
        request.bound = self.plan_cache.bound(
            len(request.data),
            request.k,
            request.data.dtype,
            self.profile,
            recall_target=request.recall_target,
        )
        request.plan = request.bound.plan
        return request.plan

    def group(
        self, requests: Sequence[ServingRequest]
    ) -> list[list[ServingRequest]]:
        """Partition requests into execution groups, preserving arrival
        order within each group.

        Batch-eligible requests with the same :class:`BatchKey` share a
        bucket (chunked at ``max_batch``), which :meth:`_split` may divide
        by network width; everything else runs alone.
        """
        buckets: list[tuple[Batch | None, list[ServingRequest]]] = []
        open_group: dict[BatchKey, list[ServingRequest]] = {}
        for request in requests:
            if request.plan is None:
                self.plan(request)
            if not request.batchable:
                buckets.append((None, [request]))
                continue
            key = request.key
            bucket = open_group.setdefault(key, [])
            bucket.append(request)
            if len(bucket) == 1:
                buckets.append((key, bucket))
            if len(bucket) >= self.max_batch:
                del open_group[key]
        return [part for key, bucket in buckets for part in self._split(key, bucket)]

    def _split(
        self, key: Batch | None, bucket: list[ServingRequest]
    ) -> list[list[ServingRequest]]:
        """The bucket as one fused launch at its largest ``network_k``, or
        one launch per ``network_k`` when the simulated clock prices those
        launches cheaper in total."""
        parts: dict[int, list[ServingRequest]] = {}
        for request in bucket:
            parts.setdefault(network_k(request.k), []).append(request)
        if len(parts) == 1:
            return [bucket]
        itemsize = bucket[0].data.dtype.itemsize

        def price(network: int, rows: int) -> float:
            return launch_price_ms(
                key, network, rows, itemsize, self.flags, self.device
            )

        fused = price(max(parts), len(bucket))
        split = sum(price(network, len(part)) for network, part in parts.items())
        return list(parts.values()) if split < fused else [bucket]

    # -- execution --------------------------------------------------------

    def serve(self, requests: Sequence[ServingRequest]):
        """Plan, group and execute ``requests``; yield each ``(group,
        outcomes)``, or ``(group, error)`` for a group whose planning
        (one request) or execution raised."""
        planned = []
        for request in requests:
            try:
                self.plan(request)
            except Exception as error:  # noqa: BLE001 — handed to the caller
                yield [request], error
                continue
            planned.append(request)
        for group in self.group(planned):
            try:
                outcomes = self.execute(group)
            except Exception as error:  # noqa: BLE001 — handed to the caller
                yield group, error
                continue
            yield group, outcomes

    def execute(self, group: Sequence[ServingRequest]) -> list[QueryOutcome]:
        """Run one group — fused when it has more than one member."""
        injector = next(
            (request.injector for request in group if request.injector is not None),
            None,
        )
        context = faults.inject(injector) if injector is not None else None
        with obs.span(
            "serving-execute",
            category="serving",
            queries=len(group),
            queue_wait_wall_ms=round(
                max(request.queue_wait_wall_ms for request in group), 6
            ),
            queue_wait_sim_ms=round(
                max(request.queue_wait_sim_ms for request in group), 6
            ),
        ):
            if context is not None:
                with context:
                    return self._execute(group)
            return self._execute(group)

    def _execute(self, group: Sequence[ServingRequest]) -> list[QueryOutcome]:
        if len(group) > 1:
            try:
                return self._execute_batched(list(group))
            except (FaultError, ResourceExhaustedError):
                # A faulted fused launch degrades to per-query resilient
                # execution rather than failing every rider.
                self.batch_fallbacks += 1
                self._count("serving.batch_fallbacks")
                return [self._execute_resilient(request) for request in group]
        return [self._execute_single(request) for request in group]

    def _execute_batched(
        self, group: list[ServingRequest]
    ) -> list[QueryOutcome]:
        # The whole group shares one Batch fingerprint, which includes the
        # planned kernel family — dispatch the matching fused launch.  Each
        # rider takes its own k-prefix: both kernels emit rows in the
        # canonical descending order.
        ks = [request.k for request in group]
        if group[0].plan.algorithm == "radik":
            matrix = np.stack([request.data for request in group])
            result = batched_radik_topk(matrix, max(ks), device=self.device)
        else:
            rows = RaggedRows(request.data for request in group)
            result = batched_topk(rows, ks, device=self.device, flags=self.flags)
        simulated_ms = trace_time(result.trace, self.device).total_ms
        self.batches += 1
        self.batched_queries += len(group)
        self.simulated_ms_total += simulated_ms
        self._count("serving.batches")
        self._count("serving.batched_queries", len(group))
        self._observe_batch(len(group), simulated_ms)
        return [
            QueryOutcome.of(
                request,
                result.values[row][: request.k],
                result.indices[row][: request.k],
                result.algorithm,
                simulated_ms,
                batched=True,
                batch_size=len(group),
            )
            for row, request in enumerate(group)
        ]

    def _execute_single(self, request: ServingRequest) -> QueryOutcome:
        try:
            bound = request.bound
            if bound is None:
                # Requests injected without going through plan(): bind on
                # the spot so execution still walks the same code path.
                bound = bind_plan(request.plan, self.device, flags=self.flags)
            result = bound.run(request.data, request.k)
        except (FaultError, ResourceExhaustedError):
            return self._execute_resilient(request)
        outcome = self._answer(request, result)
        self.single_queries += 1
        self._count("serving.single_queries")
        return outcome

    def _execute_resilient(self, request: ServingRequest) -> QueryOutcome:
        """Per-query fallback: the resilience layer's retry/fallback chain
        (ending on the CPU heap) finishes what the fused launch could not."""
        executor = ResilientExecutor(self.device)
        result = executor.run(
            request.data,
            request.k,
            algorithm=request.plan.algorithm,
            profile=self.profile,
        )
        outcome = self._answer(request, result, fell_back=True)
        self.fallback_queries += 1
        self._count("serving.fallback_queries")
        return outcome

    def _answer(self, request: ServingRequest, result, **flags) -> QueryOutcome:
        """One query's own launch, priced and added to the running total."""
        simulated_ms = trace_time(result.trace, self.device).total_ms
        self.simulated_ms_total += simulated_ms
        return QueryOutcome.of(
            request,
            result.values,
            result.indices,
            result.algorithm,
            simulated_ms,
            **flags,
        )

    # -- stats ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "single_queries": self.single_queries,
            "batch_fallbacks": self.batch_fallbacks,
            "fallback_queries": self.fallback_queries,
            "simulated_ms_total": self.simulated_ms_total,
            "mean_batch_size": (
                self.batched_queries / self.batches if self.batches else 0.0
            ),
        }

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe_batch(self, size: int, simulated_ms: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram("serving.batch_size").observe(size)
            self.metrics.histogram("serving.batch_simulated_ms").observe(
                simulated_ms
            )
