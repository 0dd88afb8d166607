"""Concurrent serving layer: plan cache, cross-query batching, scheduler.

``repro.serving`` turns the single-query engine into a serving tier:

* :class:`PlanCache` memoizes the cost-model planner per
  ``(n, k, dtype, profile, device)`` shape;
* :class:`CrossQueryBatcher` fuses compatible in-flight queries into one
  :func:`~repro.core.batched.batched_topk` launch;
* :class:`TopKServer` is the thread-based front door with bounded-queue
  admission control and per-query Futures;
* :func:`run_serving_benchmark` replays a synthetic workload through both
  the sequential and served paths (the ``repro serve-bench`` command).
"""

from repro.serving.batcher import (
    BATCHABLE_ALGORITHM,
    BATCHABLE_ALGORITHMS,
    DEFAULT_MAX_BATCH,
    BatchKey,
    CrossQueryBatcher,
    QueryOutcome,
    ServingRequest,
    network_k,
)
from repro.serving.bench import (
    ServeBenchReport,
    Workload,
    run_serving_benchmark,
)
from repro.serving.plan_cache import DEFAULT_CAPACITY, PlanCache
from repro.serving.scheduler import DEFAULT_MAX_PENDING, TopKServer

__all__ = [
    "BATCHABLE_ALGORITHM",
    "BATCHABLE_ALGORITHMS",
    "DEFAULT_CAPACITY",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_PENDING",
    "BatchKey",
    "CrossQueryBatcher",
    "PlanCache",
    "QueryOutcome",
    "ServeBenchReport",
    "ServingRequest",
    "TopKServer",
    "Workload",
    "network_k",
    "run_serving_benchmark",
]
