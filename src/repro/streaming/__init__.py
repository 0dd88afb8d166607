"""Streaming top-k: incremental maintainers, subscriptions, serving.

The streaming layer turns the engine's one-shot selection into
continuous queries over unbounded streams: per-chunk summaries absorb
inserts and window evictions without recomputing from scratch
(:class:`WindowTopK`), exponential decay re-scores a carried candidate
set exactly (:class:`DecayedTopK`), and :class:`Subscription` packages
either behind the plan IR's ``Stream`` node.  Both maintainers are
bit-equal to full recomputation on every tick; the cost model's
:class:`~repro.costmodel.streaming_model.StreamingModel` prices the
churn crossover between the two modes.
"""

from repro.streaming.bench import (
    GATE_SPEEDUP,
    StreamBenchReport,
    StreamPoint,
    StreamWorkload,
    run_streaming_benchmark,
)
from repro.streaming.serve import (
    TICK_STATUSES,
    StreamServeReport,
    TickOutcome,
    serve_stream,
)
from repro.streaming.subscription import Subscription, TickResult, explain_stream
from repro.streaming.window import DecayedTopK, StreamChunk, WindowTopK

__all__ = [
    "GATE_SPEEDUP",
    "StreamBenchReport",
    "StreamPoint",
    "StreamWorkload",
    "run_streaming_benchmark",
    "TICK_STATUSES",
    "StreamServeReport",
    "TickOutcome",
    "serve_stream",
    "Subscription",
    "TickResult",
    "explain_stream",
    "DecayedTopK",
    "StreamChunk",
    "WindowTopK",
]
