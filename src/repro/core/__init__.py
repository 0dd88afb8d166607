"""Public API: top-k entry points, the planner, and the extensions."""

from repro.core.batched import batched_topk
from repro.core.chunked import ChunkedTopK, ChunkPlan, chunked_topk
from repro.core.filtered import percentile, topk_where
from repro.core.planner import PlanChoice, TopKPlanner
from repro.core.topk import bottomk, topk

__all__ = [
    "batched_topk",
    "ChunkedTopK",
    "ChunkPlan",
    "chunked_topk",
    "percentile",
    "topk_where",
    "PlanChoice",
    "TopKPlanner",
    "bottomk",
    "topk",
]
