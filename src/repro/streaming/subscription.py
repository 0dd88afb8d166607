"""Continuous subscriptions: a standing top-k query over a stream.

A :class:`Subscription` is the continuous-query counterpart of one
``SELECT ... ORDER BY ... LIMIT k``: its plan is rooted on a
:class:`~repro.plan.Stream` node instead of a Scan, and instead of
executing once it is *ticked* — each tick absorbs one arriving chunk
into the window maintainer and emits the current top-k with the tick's
simulated execution trace.  Every tick runs under an observability span
(``stream:tick``) with the tick's kernels attributed exactly like a
one-shot query's, and publishes ``streaming.*`` metrics.

:func:`explain_stream` is EXPLAIN for subscriptions: it prices the two
maintenance strategies — ``incremental`` (per-chunk summaries merged per
tick) and ``recompute`` (the one-shot kernel over the window every tick)
— at steady state and recommends the cheaper, rendering through the same
:class:`~repro.engine.explain.QueryPlan` shape the one-shot EXPLAIN
uses, plan trees and fingerprints included.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from repro import observability as obs
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.engine.explain import QueryPlan, StrategyPlan
from repro.errors import InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device
from repro.plan import PlanNode, Stream, TopK
from repro.streaming.window import DecayedTopK, StreamChunk, TickShape, WindowTopK


@dataclass(frozen=True)
class TickResult:
    """One tick's answer: the current top-k plus its accounting."""

    tick: int
    #: Winner ranking values — raw stream values for window mode, the
    #: float64 decayed scores for decay mode.
    values: np.ndarray
    #: Winner global row ids (the tie-breaking identity).
    gids: np.ndarray
    #: The tick's kernels, shared with every tick of the same shape.
    shape: TickShape
    simulated_ms: float
    mode: str
    #: False when the serving layer absorbed the chunk but shed the emit.
    emitted: bool = True

    @cached_property
    def trace(self) -> ExecutionTrace:
        """The tick's simulated kernels, built on first read; the caller
        owns it, so mutating it changes no other tick."""
        return self.shape.trace()


class Subscription:
    """A standing top-k query driven tick-by-tick.

    Exactly one of ``window`` (sliding window, in rows, chunk aligned)
    or ``decay`` (per-tick exponential decay factor) selects the
    maintenance semantics.  ``tick(values, gids)`` drives the
    subscription manually; ``step()`` pulls the next chunk from the
    attached source (``Session.subscribe`` attaches the tweet stream).
    """

    def __init__(
        self,
        k: int,
        chunk_rows: int,
        window: int | None = None,
        decay: float | None = None,
        device: DeviceSpec | None = None,
        flags: OptimizationFlags = FULL,
        shards: int = 1,
        mode: str = "auto",
        source: str = "stream",
        source_chunks: Iterator[StreamChunk] | None = None,
        observed: Callable | None = None,
    ):
        if (window is None) == (decay is None):
            raise InvalidParameterError(
                "a subscription needs exactly one of window= or decay="
            )
        if chunk_rows < 1:
            raise InvalidParameterError(
                f"chunk_rows must be at least 1, got {chunk_rows}"
            )
        self.k = k
        self.chunk_rows = chunk_rows
        self.window = window
        self.decay = decay
        self.device = device or get_device()
        self.flags = flags
        self.shards = shards
        self.source = source
        self._source_chunks = source_chunks
        self._observed = observed or nullcontext
        if window is not None:
            if window < chunk_rows or window % chunk_rows != 0:
                raise InvalidParameterError(
                    f"window ({window}) must be a positive multiple of "
                    f"chunk_rows ({chunk_rows})"
                )
            self.maintainer = WindowTopK(
                k,
                window // chunk_rows,
                chunk_rows,
                device=self.device,
                flags=flags,
                shards=shards,
                mode=mode,
            )
        else:
            self.maintainer = DecayedTopK(
                k,
                decay,
                device=self.device,
                flags=flags,
                shards=shards,
                mode="incremental" if mode == "auto" else mode,
            )
        self.mode = self.maintainer.mode
        self.maintainer.open()
        self._next_gid = 0
        self.ticks = 0
        self.closed = False

    # -- identity ---------------------------------------------------------

    def plan(self) -> PlanNode:
        """The subscription's plan: TopK over a Stream source.

        Window/decay are identity fields of the Stream node, and the
        maintenance mode names the TopK algorithm — a sliding-window and
        a decayed subscription (or the two maintenance modes) fingerprint
        distinctly, so plan caches never conflate them.
        """
        stream = Stream(
            source=self.source,
            chunk_rows=self.chunk_rows,
            dtype="float32",
            window=self.window or 0,
            decay=self.decay,
        )
        kind = "window" if self.window is not None else "decay"
        return TopK(
            child=stream,
            k=self.k,
            n=self.window or 0,
            dtype="float32",
            algorithm=f"{self.mode}-{kind}",
        )

    def fingerprint(self) -> str:
        return self.plan().fingerprint()

    # -- driving ----------------------------------------------------------

    def tick(
        self,
        values: np.ndarray,
        gids: np.ndarray | None = None,
        emit: bool = True,
    ) -> TickResult:
        """Absorb one chunk and (unless shed) emit the current top-k."""
        if self.closed:
            raise InvalidParameterError("subscription is closed")
        values = np.asarray(values)
        if gids is None:
            gids = np.arange(
                self._next_gid, self._next_gid + len(values), dtype=np.int64
            )
        self._next_gid = int(gids[-1]) + 1 if len(gids) else self._next_gid
        chunk = StreamChunk(values=values, gids=np.asarray(gids))
        tick_index = self.ticks
        with self._observed():
            with obs.span(
                "stream:tick",
                category="streaming",
                tick=tick_index,
                mode=self.mode,
                rows=len(chunk),
                emitted=emit,
            ) as span:
                self.maintainer.advance(chunk)
                shape = self._tick_shape(emit)
                if emit:
                    out_values, out_gids = self.maintainer.emit()
                else:
                    out_values = np.empty(0, dtype=np.float64)
                    out_gids = np.empty(0, dtype=np.int64)
                from repro.observability.instrument import record_trace

                sim_ms = record_trace(shape.kernels, self.device) or shape.simulated_ms
                span.set(simulated_ms=sim_ms, result_rows=len(out_gids))
                registry = obs.active_metrics()
                if registry is not None:
                    registry.counter("streaming.ticks", mode=self.mode).inc()
                    registry.counter("streaming.rows").inc(len(chunk))
                    if not emit:
                        registry.counter("streaming.sheds").inc()
        self.ticks += 1
        return TickResult(
            tick=tick_index,
            values=out_values,
            gids=out_gids,
            shape=shape,
            simulated_ms=sim_ms,
            mode=self.mode,
            emitted=emit,
        )

    def step(self, emit: bool = True) -> TickResult:
        """Pull the next chunk from the attached source and tick."""
        if self._source_chunks is None:
            raise InvalidParameterError(
                "subscription has no attached source; drive it with tick()"
            )
        chunk = next(self._source_chunks)
        return self.tick(chunk.values, chunk.gids, emit=emit)

    def _tick_shape(self, emitted: bool) -> TickShape:
        if isinstance(self.maintainer, WindowTopK):
            return self.maintainer.tick_shape(emitted=emitted)
        return self.maintainer.tick_shape(self.chunk_rows, emitted=emitted)

    def close(self) -> None:
        if not self.closed:
            self.maintainer.close()
            self.closed = True

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False


def explain_stream(
    k: int,
    chunk_rows: int,
    window: int | None = None,
    decay: float | None = None,
    device: DeviceSpec | None = None,
    flags: OptimizationFlags = FULL,
    shards: int = 1,
    source: str = "stream",
) -> QueryPlan:
    """EXPLAIN for a continuous subscription: price the maintenance modes.

    Window subscriptions price both arms at steady state (a full window
    of live summaries) and recommend the cheaper.  Decayed subscriptions
    have no finite window, so pure recompute has no bounded per-tick
    cost — only the incremental arm (whose carried candidate set is
    exact) is offered.
    """
    device = device or get_device()
    modes = ("incremental", "recompute") if window is not None else ("incremental",)
    strategies = []
    for mode in modes:
        subscription = Subscription(
            k,
            chunk_rows,
            window=window,
            decay=decay,
            device=device,
            flags=flags,
            shards=shards,
            mode=mode,
            source=source,
        )
        maintainer = subscription.maintainer
        if isinstance(maintainer, WindowTopK):
            shape = maintainer.tick_shape(live=maintainer.window_chunks)
            pipeline = (
                [
                    "chunk summarize (per-shard bitonic top-k)",
                    "tick merge (live summaries, canonical order)",
                ]
                if mode == "incremental"
                else ["window recompute (one-shot bitonic top-k per tick)"]
            )
        else:
            shape = maintainer.tick_shape(chunk_rows)
            pipeline = [
                "chunk summarize (per-shard bitonic top-k)",
                "decay + carried-set merge (float64 rescore)",
            ]
        plan = subscription.plan()
        subscription.close()
        strategies.append(
            StrategyPlan(
                strategy=mode,
                pipeline=tuple(pipeline),
                simulated_ms=shape.simulated_ms,
                kernel_launches=shape.kernels.num_launches,
                plan=plan,
            )
        )
    strategies.sort(key=lambda plan: plan.simulated_ms)
    horizon = window if window is not None else chunk_rows
    clause = f"OVER WINDOW {window}" if window is not None else f"DECAY {decay}"
    sql = f"SUBSCRIBE TOP {k} BY score FROM {source} EVERY {chunk_rows} {clause}"
    return QueryPlan(sql=sql, model_rows=horizon, strategies=tuple(strategies))
