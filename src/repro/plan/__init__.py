"""``repro.plan``: the typed physical-plan IR.

Every layer of the reproduction speaks this IR: the planner emits
:class:`TopKPlan` trees of :class:`PlanNode` operators, the resilient
executor walks explicit :class:`Fallback` nodes, the engine interprets
query plans, the serving cache keys bound plans on
:meth:`~PlanNode.fingerprint`, the batcher groups on
fingerprint-compatible :class:`Batch` nodes, and EXPLAIN renders
:meth:`~PlanNode.render` trees (``to_dict`` for external tooling).
"""

from repro.plan.bind import BoundPlan, bind_plan
from repro.plan.nodes import (
    CPU_FALLBACK,
    NODE_KINDS,
    PLAN_FORMAT,
    PLAN_VERSION,
    ApproxTopK,
    Batch,
    Fallback,
    Filter,
    Merge,
    PlanNode,
    Scan,
    Stream,
    TopK,
)
from repro.plan.plan import (
    BATCHABLE_ALGORITHM,
    BATCHABLE_ALGORITHMS,
    PlanChoice,
    TopKPlan,
    batch_key,
    build_fallback,
    network_k,
    operator_node,
    request_fingerprint,
)

__all__ = [
    "BATCHABLE_ALGORITHM",
    "BATCHABLE_ALGORITHMS",
    "CPU_FALLBACK",
    "NODE_KINDS",
    "PLAN_FORMAT",
    "PLAN_VERSION",
    "ApproxTopK",
    "Batch",
    "BoundPlan",
    "Fallback",
    "Filter",
    "Merge",
    "PlanChoice",
    "PlanNode",
    "Scan",
    "Stream",
    "TopK",
    "TopKPlan",
    "batch_key",
    "bind_plan",
    "build_fallback",
    "network_k",
    "operator_node",
    "request_fingerprint",
]
