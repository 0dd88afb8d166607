"""Incremental top-k maintenance over sliding windows and decayed streams.

The maintainers here implement the engine's incremental operator contract
(:class:`~repro.engine.operators.IncrementalOperator`) with ``advance``
as *summary absorption* instead of buffering:

* :class:`WindowTopK` keeps a ring of per-chunk **summaries**: each
  arriving chunk is reduced to its own top-k candidates, whose key codes,
  values and gids are written into the chunk's slot of three flat
  ``window_chunks * k`` arrays.  The window evicts a whole expired chunk
  by overwriting its slot, and ``emit`` is one canonical cut
  (:func:`repro.algorithms.keys.canonical_topk`) over the live slots'
  stored codes: nothing is concatenated or encoded again.  The ring is
  exact: any true window top-k row has fewer than k predecessors in the
  whole window, hence fewer than k in its own chunk, so it survives its
  chunk's summary — the delegate argument of Dr. Top-k applied per
  chunk.  The cut uses the canonical total order (values descending, NaN
  last, ties to the lower global row id), so the incremental answer is
  **bit-equal** to recomputing over the window's raw rows every tick.
* :class:`DecayedTopK` maintains exponentially-decayed top-k: every live
  row's score at tick ``T`` is ``value * decay**(T - arrival_tick)``.
  Uniform decay preserves every pairwise score *ratio* across ticks, so
  the previous winners plus the new chunk's summary form an exact
  candidate set — no eviction ever needs revisiting dropped rows.  Both
  the incremental and recompute arms compute scores with the identical
  float64 expression, so ties (including cross-tick score collisions)
  resolve identically and the answers are bit-equal.

When the executor holds multiple shards, each arriving chunk is split
into contiguous per-shard ranges, every shard summarizes its range
concurrently, and the per-shard summaries are merged per tick — the
tick trace charges the critical path (one shard's kernels), mirroring
the scatter-gather executor's accounting.

A tick's simulated kernels depend only on the maintainer's fixed
parameters and the tick's shape (mode, live chunks, whether it emitted),
so each maintainer builds and prices every shape once
(:class:`TickShape`) and every later tick of that shape reuses it.  A
shed tick (absorbed, not emitted) is charged only for what ``advance``
ran: the chunk summarize when incremental, nothing when recompute.  The
decayed maintainer's next emitted merge reads every summary absorbed
since its last emit, and is priced on that many candidates.

Each maintainer prices its own crossover: construction consults the
:class:`~repro.costmodel.streaming_model.StreamingModel` and falls back
to recompute-per-tick when churn (chunk/window) is past the point where
summary maintenance stops paying (``mode="auto"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.algorithms import keys
from repro.bitonic.kernels import build_trace
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.costmodel.streaming_model import CANDIDATE_BYTES, StreamingModel
from repro.engine.operators import IncrementalOperator
from repro.errors import InvalidParameterError
from repro.gpu import faults
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import trace_time
from repro.plan import network_k
from repro.sharding.merge import merge_topk

#: Maintenance modes a maintainer resolves ``"auto"`` to.
MODES = ("incremental", "recompute")

#: Distinct tick shapes a decayed maintainer keeps priced.  Its emitted
#: shapes differ by the summaries absorbed since the last emit, which only
#: shed ticks make more than one.
_DECAY_SHAPES = 64


@dataclass(frozen=True)
class StreamChunk:
    """One tick's arriving rows: ranking values + global row ids."""

    values: np.ndarray
    gids: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != len(self.gids):
            raise InvalidParameterError(
                f"chunk values ({len(self.values)}) and gids "
                f"({len(self.gids)}) must align"
            )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TickShape:
    """One tick shape's kernels, built once and priced on first use.

    ``kernels`` is shared by every tick of the shape: read it (as
    :func:`~repro.observability.instrument.record_trace` does), never
    mutate it.  :meth:`trace` hands out a copy the caller owns.
    """

    kernels: ExecutionTrace
    device: DeviceSpec

    @cached_property
    def simulated_ms(self) -> float:
        return trace_time(self.kernels, self.device).total_ms

    def trace(self) -> ExecutionTrace:
        """A fresh copy of the shape's trace."""
        return ExecutionTrace(
            kernels=[replace(kernel) for kernel in self.kernels.kernels],
            notes=dict(self.kernels.notes),
        )


def _validate_mode(mode: str) -> None:
    if mode not in MODES and mode != "auto":
        raise InvalidParameterError(
            f"unknown maintenance mode {mode!r}; available: {('auto', *MODES)}"
        )


def _emit_k(maintainer, k: int | None) -> int:
    """The k an ``emit`` answers (the maintainer's own by default).

    An incremental maintainer keeps only its own k candidates per chunk,
    so a larger k would be answered short and inexact: it is rejected.
    """
    k = maintainer.k if k is None else k
    if maintainer.mode == "incremental" and k > maintainer.k:
        raise InvalidParameterError(
            f"an incremental maintainer of k={maintainer.k} cannot emit "
            f"k={k}; build it with the larger k or use mode='recompute'"
        )
    return k


def _chunk_summary(
    chunk: StreamChunk, k: int, shards: int
) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's top-k candidates, via per-shard summaries when sharded.

    Sub-summaries contain the chunk's true top-k (the same predecessor
    argument one level down), so the sharded merge equals the direct
    summary bit for bit.
    """
    if shards <= 1 or len(chunk) <= shards:
        return merge_topk(chunk.values, chunk.gids, k)
    bounds = np.linspace(0, len(chunk), shards + 1, dtype=np.int64)
    partial_values = []
    partial_gids = []
    for shard in range(shards):
        lo, hi = bounds[shard], bounds[shard + 1]
        values, gids = merge_topk(chunk.values[lo:hi], chunk.gids[lo:hi], k)
        partial_values.append(values)
        partial_gids.append(gids)
    return merge_topk(np.concatenate(partial_values), np.concatenate(partial_gids), k)


def _shape(maintainer, key, bound: int, build) -> TickShape:
    """``maintainer``'s memoized tick shape ``key``, built by ``build()``
    and noted with the maintainer's mode and shards.

    Builds run with fault injection suspended: pricing a tick is not a
    launch, so no fault point fires in it.  At most ``bound`` shapes are
    kept; a shape past the bound is built for its tick alone.
    """
    shape = maintainer._shapes.get(key)
    if shape is None:
        with faults.suspended():
            trace = build()
        trace.notes["streaming.mode"] = maintainer.mode
        trace.notes["streaming.shards"] = maintainer.shards
        shape = TickShape(trace, maintainer.device)
        if len(maintainer._shapes) < bound:
            maintainer._shapes[key] = shape
    return shape


def _summarize_trace(maintainer, chunk_rows: int, candidates: int) -> ExecutionTrace:
    """One shard's chunk summarize, then, when ``candidates`` is not 0, the
    tick merge reading that many candidates."""
    trace = build_trace(
        max(1, chunk_rows // maintainer.shards),
        network_k(maintainer.k),
        CANDIDATE_BYTES,
        maintainer.flags,
        maintainer.device,
    )
    if candidates:
        merge = trace.launch("tick-merge")
        merge.add_global_read(float(candidates) * CANDIDATE_BYTES)
        merge.add_global_write(float(maintainer.k) * CANDIDATE_BYTES)
    return trace


class WindowTopK(IncrementalOperator):
    """Sliding-window top-k via a ring of per-chunk summaries.

    The window is ``window_chunks`` chunks long (windows are chunk
    aligned: evictions drop whole expired chunks).  ``advance`` absorbs
    one chunk: it summarizes the chunk and writes the summary's codes,
    values and gids into ring slot ``tick % window_chunks``, over the
    expired chunk's.  ``emit`` cuts the live slots to k once and gathers
    the winners' values and gids.  A summary shorter than k leaves the
    rest of its slot unused, and the cut skips unused positions.  Under
    ``mode="recompute"`` the raw chunks are retained instead and every
    ``emit`` re-selects over the full window; ``mode="auto"`` picks
    whichever the cost model prices cheaper at this (window, chunk, k).

    The ring's answer does not depend on the order of its slots while
    gids are distinct.  When a gid repeats inside the window with values
    of one code (-0.0 and +0.0, or NaNs of different payloads), the
    answer may carry another copy's value bits than recompute's.  A
    summary whose value or gid dtype differs from the ring's (the first
    summary after ``open`` types it) is kept aside, and while one is live
    ``emit`` concatenates the live summaries and merges them, so numpy
    promotes mixed dtypes exactly as recompute does.
    """

    def __init__(
        self,
        k: int,
        window_chunks: int,
        chunk_rows: int,
        device: DeviceSpec | None = None,
        flags: OptimizationFlags = FULL,
        shards: int = 1,
        mode: str = "auto",
    ):
        super().__init__()
        if k < 1:
            raise InvalidParameterError(f"k must be at least 1, got {k}")
        if window_chunks < 1:
            raise InvalidParameterError(
                f"window_chunks must be at least 1, got {window_chunks}"
            )
        if chunk_rows < 1:
            raise InvalidParameterError(
                f"chunk_rows must be at least 1, got {chunk_rows}"
            )
        if shards < 1:
            raise InvalidParameterError(f"shards must be at least 1, got {shards}")
        _validate_mode(mode)
        self.k = k
        self.window_chunks = window_chunks
        self.chunk_rows = chunk_rows
        self.device = device or get_device()
        self.flags = flags
        self.shards = shards
        if mode == "auto":
            model = StreamingModel(self.device, chunk_rows, flags)
            mode = model.choose_mode(window_chunks * chunk_rows, chunk_rows, k)
        self.mode = mode
        self._raw: deque = deque(maxlen=window_chunks)
        self._clear_ring()
        self._shapes: dict = {}
        self.ticks = 0

    # -- the incremental contract ---------------------------------------

    def open(self) -> None:
        super().open()
        self._clear_ring()
        self._raw.clear()
        self.ticks = 0

    def advance(self, chunk: StreamChunk) -> None:
        self._require_open("advance")
        if self.mode == "incremental":
            self._absorb(self.ticks, chunk)
        else:
            self._raw.append(chunk)
        self.ticks += 1

    def emit(self, k: int | None = None, model_n: int | None = None):
        self._require_open("emit")
        k = _emit_k(self, k)
        if self.ticks == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty.astype(np.float64), empty
        if self.mode == "recompute":
            values = np.concatenate([chunk.values for chunk in self._raw])
            gids = np.concatenate([chunk.gids for chunk in self._raw])
            return merge_topk(values, gids, k)
        if self._foreign:
            return merge_topk(*self._live_summaries(), k)
        # Slots fill in tick order from slot 0, so the live slots are a
        # prefix of the ring until it wraps.
        slots = min(self.ticks, self.window_chunks)
        codes = self._codes[: slots * self.k]
        gids = self._gids[: slots * self.k]
        if self._short:
            lengths = np.array(self._lengths[:slots])
            live = np.flatnonzero(np.arange(self.k) < lengths[:, None])
            order = live[keys.canonical_topk(codes[live], gids[live], k)]
        else:
            order = keys.canonical_topk(codes, gids, k)
        return self._values[order], self._gids[order]

    def close(self) -> None:
        super().close()
        self._clear_ring()
        self._raw.clear()

    def degrade_to_incremental(self) -> bool:
        """Switch a recompute-mode window to summary maintenance in place.

        The SLO ladder's rung 1 for streams: when projected tick time
        overruns the deadline, the cheap plan replaces the expensive one
        without losing the window — each retained raw chunk is summarized
        into its ring slot, which is exact, so the next ``emit`` is still
        bit-equal.  Returns False when already incremental.
        """
        if self.mode == "incremental":
            return False
        first = self.ticks - len(self._raw)
        for offset, chunk in enumerate(self._raw):
            self._absorb(first + offset, chunk)
        self._raw.clear()
        self.mode = "incremental"
        return True

    # -- the summary ring -------------------------------------------------

    def _clear_ring(self) -> None:
        # Typed and allocated by the first summary absorbed.
        self._codes = self._values = self._gids = None
        #: Rows each slot holds.  An unwritten slot counts as full: it lies
        #: past the live prefix, which emit cuts.
        self._lengths = [self.k] * self.window_chunks
        #: Written slots holding fewer than k rows: while any is, emit
        #: masks the unused positions.
        self._short = 0
        #: slot -> summary whose dtypes differ from the ring's.
        self._foreign: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _absorb(self, tick: int, chunk: StreamChunk) -> None:
        """Summarize ``chunk``, advanced at ``tick``, into its ring slot."""
        values, gids = _chunk_summary(chunk, self.k, self.shards)
        if self._codes is None:
            size = self.window_chunks * self.k
            self._values = np.empty(size, dtype=values.dtype)
            self._gids = np.empty(size, dtype=gids.dtype)
            self._codes = np.empty(size, dtype=keys.encode(values[:0]).dtype)
        slot = tick % self.window_chunks
        count = len(values)
        self._short += (count < self.k) - (self._lengths[slot] < self.k)
        self._lengths[slot] = count
        if values.dtype != self._values.dtype or gids.dtype != self._gids.dtype:
            self._foreign[slot] = (values, gids)
            return
        self._foreign.pop(slot, None)
        start = slot * self.k
        self._values[start : start + count] = values
        self._gids[start : start + count] = gids
        self._codes[start : start + count] = keys.encode(values)

    def _live_summaries(self) -> tuple[np.ndarray, np.ndarray]:
        """The live summaries' values and gids, concatenated oldest first."""
        parts = []
        for tick in range(max(0, self.ticks - self.window_chunks), self.ticks):
            slot = tick % self.window_chunks
            part = self._foreign.get(slot)
            if part is None:
                start = slot * self.k
                stop = start + self._lengths[slot]
                part = (self._values[start:stop], self._gids[start:stop])
            parts.append(part)
        return (
            np.concatenate([values for values, _ in parts]),
            np.concatenate([gids for _, gids in parts]),
        )

    # -- accounting ------------------------------------------------------

    def live_rows(self) -> int:
        """Rows the live window covers (for recompute accounting)."""
        live = min(self.ticks, self.window_chunks)
        return live * self.chunk_rows

    def tick_shape(self, live: int | None = None, emitted: bool = True) -> TickShape:
        """The simulated kernels one tick of maintenance launches.

        Incremental: the per-shard chunk summarize (critical path — the
        shards run concurrently, so one shard's kernels are charged) plus,
        when the tick emitted, the tick merge over the live candidates.
        Recompute: the one-shot selection over the whole live window when
        the tick emitted, and nothing when it was shed.  ``live``
        overrides the live-chunk count (EXPLAIN prices the steady state,
        a maintainer mid-warmup reports what it actually holds).

        Built and priced once per (mode, live, emitted): at most
        ``2 * window_chunks + 2`` shapes.
        """
        if live is None:
            live = max(1, min(self.ticks, self.window_chunks))
        if not emitted:
            live = 0

        def build() -> ExecutionTrace:
            if self.mode == "incremental":
                candidates = (live + self.shards) * self.k if emitted else 0
                return _summarize_trace(self, self.chunk_rows, candidates)
            if not emitted:
                return ExecutionTrace()
            return build_trace(
                max(1, live * self.chunk_rows),
                network_k(self.k),
                CANDIDATE_BYTES,
                self.flags,
                self.device,
            )

        bound = 2 * self.window_chunks + 2
        return _shape(self, (self.mode, live, emitted), bound, build)

    def tick_trace(
        self, live: int | None = None, emitted: bool = True
    ) -> ExecutionTrace:
        """A copy of :meth:`tick_shape`'s trace."""
        return self.tick_shape(live, emitted).trace()


class DecayedTopK(IncrementalOperator):
    """Exponentially-decayed top-k over an unbounded stream.

    Every live row's score at tick ``T`` is the float64 product
    ``value * decay**(T - arrival_tick)``.  The incremental arm carries
    only the previous winners (with their base values and arrival ticks)
    and absorbs each new chunk's summary; the recompute arm retains every
    chunk and re-scores the full history.  Both arms evaluate scores
    with the identical expression, so they are bit-equal per tick.
    """

    def __init__(
        self,
        k: int,
        decay: float,
        device: DeviceSpec | None = None,
        flags: OptimizationFlags = FULL,
        shards: int = 1,
        mode: str = "incremental",
    ):
        super().__init__()
        if k < 1:
            raise InvalidParameterError(f"k must be at least 1, got {k}")
        if not 0.0 < decay <= 1.0:
            raise InvalidParameterError(f"decay must be in (0, 1], got {decay}")
        if shards < 1:
            raise InvalidParameterError(f"shards must be at least 1, got {shards}")
        _validate_mode(mode)
        if mode == "auto":
            # Decay has no window to recompute over a bounded set; the
            # incremental candidate set is exact, so it is always chosen.
            mode = "incremental"
        self.k = k
        self.decay = decay
        self.device = device or get_device()
        self.flags = flags
        self.shards = shards
        self.mode = mode
        self._shapes: dict = {}
        self.ticks = 0
        #: Chunks absorbed since the last emit.
        self._pending = 0
        self._values = np.empty(0, dtype=np.float64)
        self._arrivals = np.empty(0, dtype=np.int64)
        self._gids = np.empty(0, dtype=np.int64)
        self._history: list[tuple[np.ndarray, np.ndarray, int]] = []

    def open(self) -> None:
        super().open()
        self.ticks = 0
        self._pending = 0
        self._values = np.empty(0, dtype=np.float64)
        self._arrivals = np.empty(0, dtype=np.int64)
        self._gids = np.empty(0, dtype=np.int64)
        self._history = []

    def advance(self, chunk: StreamChunk) -> None:
        self._require_open("advance")
        tick = self.ticks
        if self.mode == "incremental":
            # Within one chunk every row shares an arrival tick, so the
            # raw-value order *is* the score order: the chunk summary is
            # an exact candidate subset.
            values, gids = _chunk_summary(chunk, self.k, self.shards)
            self._values = np.concatenate([self._values, values.astype(np.float64)])
            self._arrivals = np.concatenate(
                [self._arrivals, np.full(len(gids), tick, dtype=np.int64)]
            )
            self._gids = np.concatenate([self._gids, gids.astype(np.int64)])
        else:
            self._history.append(
                (
                    np.asarray(chunk.values, dtype=np.float64),
                    np.asarray(chunk.gids, dtype=np.int64),
                    tick,
                )
            )
        self.ticks += 1
        self._pending += 1

    @staticmethod
    def _scores(
        values: np.ndarray, arrivals: np.ndarray, tick: int, decay: float
    ) -> np.ndarray:
        # The single scoring expression both arms share: any change here
        # must stay literally identical across them, or bit-equality (and
        # the tie structure) silently breaks.
        return values * np.float64(decay) ** (tick - arrivals)

    def emit(self, k: int | None = None, model_n: int | None = None):
        self._require_open("emit")
        k = _emit_k(self, k)
        if self.ticks == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty.astype(np.float64), empty
        tick = self.ticks - 1
        if self.mode == "incremental":
            values, arrivals, gids = self._values, self._arrivals, self._gids
        else:
            values = np.concatenate([item[0] for item in self._history])
            arrivals = np.concatenate(
                [
                    np.full(len(item[1]), item[2], dtype=np.int64)
                    for item in self._history
                ]
            )
            gids = np.concatenate([item[1] for item in self._history])
        scores = self._scores(values, arrivals, tick, self.decay)
        order = keys.canonical_topk(keys.encode(scores), gids, max(k, self.k))
        if self.mode == "incremental":
            # The maintainer's k winners (base values + arrivals) are the
            # next tick's carried candidates — the ratio argument makes
            # them exact, whatever k this emit answers.
            self._values = values[order]
            self._arrivals = arrivals[order]
            self._gids = gids[order]
        self._pending = 0
        order = order[:k]
        return scores[order], gids[order]

    def close(self) -> None:
        super().close()
        self._values = np.empty(0, dtype=np.float64)
        self._arrivals = np.empty(0, dtype=np.int64)
        self._gids = np.empty(0, dtype=np.int64)
        self._history = []

    def tick_shape(self, chunk_rows: int, emitted: bool = True) -> TickShape:
        """One tick's simulated kernels (summarize + carried-set merge).

        The merge reads the carried k winners plus every shard's summary
        of each chunk absorbed since the last emit (at least one, so a
        fresh maintainer prices the steady state).  A shed tick is charged
        only for its summarize, and nothing under ``mode="recompute"``,
        whose ``advance`` only keeps the chunk.
        """
        pending = max(1, self._pending) if emitted else 0

        def build() -> ExecutionTrace:
            if self.mode == "recompute" and not emitted:
                return ExecutionTrace()
            candidates = (1 + pending * self.shards) * self.k if emitted else 0
            return _summarize_trace(self, chunk_rows, candidates)

        return _shape(self, (chunk_rows, pending), _DECAY_SHAPES, build)

    def tick_trace(self, chunk_rows: int, emitted: bool = True) -> ExecutionTrace:
        """A copy of :meth:`tick_shape`'s trace."""
        return self.tick_shape(chunk_rows, emitted).trace()
