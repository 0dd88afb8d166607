"""Incremental top-k maintenance over sliding windows and decayed streams.

The maintainers here implement the engine's incremental operator contract
(:class:`~repro.engine.operators.IncrementalOperator`) with ``advance``
as *summary absorption* instead of buffering:

* :class:`WindowTopK` keeps a ring of per-chunk **bucketed summaries** —
  each arriving chunk is reduced to its own top-k candidates, the window
  evicts whole expired chunks by dropping their summaries, and ``emit``
  merges the live summaries.  The summary ring is exact: any true window
  top-k row has fewer than k predecessors in the whole window, hence
  fewer than k in its own chunk, so it survives its chunk's summary —
  the delegate argument of Dr. Top-k applied per chunk.  Merging uses
  the canonical total order (:func:`repro.sharding.merge.merge_topk`:
  values descending, NaN last, ties to the lower global row id), so the
  incremental answer is **bit-equal** to recomputing over the window's
  raw rows every tick.
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

Each maintainer prices its own crossover: construction consults the
:class:`~repro.costmodel.streaming_model.StreamingModel` and falls back
to recompute-per-tick when churn (chunk/window) is past the point where
summary maintenance stops paying (``mode="auto"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.algorithms.keys import canonical_topk, encode
from repro.bitonic.kernels import build_trace
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.costmodel.streaming_model import CANDIDATE_BYTES, StreamingModel
from repro.engine.operators import IncrementalOperator
from repro.errors import InvalidParameterError
from repro.gpu import faults
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device
from repro.plan import network_k
from repro.sharding.merge import merge_topk

#: Maintenance modes a maintainer resolves ``"auto"`` to.
MODES = ("incremental", "recompute")


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


def _validate_mode(mode: str) -> None:
    if mode not in MODES and mode != "auto":
        raise InvalidParameterError(
            f"unknown maintenance mode {mode!r}; "
            f"available: {('auto', *MODES)}"
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
        values, gids = merge_topk(
            chunk.values[lo:hi], chunk.gids[lo:hi], k
        )
        partial_values.append(values)
        partial_gids.append(gids)
    return merge_topk(
        np.concatenate(partial_values), np.concatenate(partial_gids), k
    )


class WindowTopK(IncrementalOperator):
    """Sliding-window top-k via a ring of per-chunk summaries.

    The window is ``window_chunks`` chunks long (windows are chunk
    aligned: evictions drop whole expired chunks).  ``advance`` absorbs
    one chunk — summarize, append, let the ring evict — and ``emit``
    merges the live summaries.  Under ``mode="recompute"`` the raw
    chunks are retained instead and every ``emit`` re-selects over the
    full window; ``mode="auto"`` picks whichever the cost model prices
    cheaper at this (window, chunk, k).
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
            raise InvalidParameterError(
                f"shards must be at least 1, got {shards}"
            )
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
        self._summaries: deque = deque(maxlen=window_chunks)
        self._raw: deque = deque(maxlen=window_chunks)
        self.ticks = 0

    # -- the incremental contract ---------------------------------------

    def open(self) -> None:
        super().open()
        self._summaries.clear()
        self._raw.clear()
        self.ticks = 0

    def advance(self, chunk: StreamChunk) -> None:
        self._require_open("advance")
        if self.mode == "incremental":
            self._summaries.append(_chunk_summary(chunk, self.k, self.shards))
        else:
            self._raw.append(chunk)
        self.ticks += 1

    def emit(self, k: int | None = None, model_n: int | None = None):
        self._require_open("emit")
        k = _emit_k(self, k)
        if self.ticks == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty.astype(np.float64), empty
        if self.mode == "incremental":
            pool = self._summaries
            values = np.concatenate([summary[0] for summary in pool])
            gids = np.concatenate([summary[1] for summary in pool])
        else:
            values = np.concatenate([chunk.values for chunk in self._raw])
            gids = np.concatenate([chunk.gids for chunk in self._raw])
        return merge_topk(values, gids, k)

    def close(self) -> None:
        super().close()
        self._summaries.clear()
        self._raw.clear()

    def degrade_to_incremental(self) -> bool:
        """Switch a recompute-mode window to summary maintenance in place.

        The SLO ladder's rung 1 for streams: when projected tick time
        overruns the deadline, the cheap plan replaces the expensive one
        without losing the window — each retained raw chunk is summarized
        into the ring, which is exact, so the next ``emit`` is still
        bit-equal.  Returns False when already incremental.
        """
        if self.mode == "incremental":
            return False
        for chunk in self._raw:
            self._summaries.append(_chunk_summary(chunk, self.k, self.shards))
        self._raw.clear()
        self.mode = "incremental"
        return True

    # -- accounting ------------------------------------------------------

    def live_rows(self) -> int:
        """Rows the live window covers (for recompute accounting)."""
        live = min(self.ticks, self.window_chunks)
        return live * self.chunk_rows

    def tick_trace(self, live: int | None = None) -> ExecutionTrace:
        """The simulated kernels one tick of maintenance launches.

        Incremental: the per-shard chunk summarize (critical path — the
        shards run concurrently, so one shard's kernels are charged) plus
        the tick merge over the live candidates.  Recompute: the one-shot
        selection over the whole live window.  ``live`` overrides the
        live-chunk count (EXPLAIN prices the steady state, a maintainer
        mid-warmup reports what it actually holds).
        """
        padded_k = network_k(self.k)
        if live is None:
            live = max(1, min(self.ticks, self.window_chunks))
        with faults.suspended():
            trace = ExecutionTrace()
            if self.mode == "incremental":
                shard_rows = max(1, self.chunk_rows // self.shards)
                trace.extend(
                    build_trace(
                        shard_rows, padded_k, CANDIDATE_BYTES,
                        self.flags, self.device,
                    )
                )
                candidates = (live + self.shards) * self.k
                merge = trace.launch("tick-merge")
                merge.add_global_read(float(candidates) * CANDIDATE_BYTES)
                merge.add_global_write(float(self.k) * CANDIDATE_BYTES)
            else:
                trace.extend(
                    build_trace(
                        max(1, live * self.chunk_rows), padded_k,
                        CANDIDATE_BYTES, self.flags, self.device,
                    )
                )
            trace.notes["streaming.mode"] = self.mode
            trace.notes["streaming.shards"] = self.shards
        return trace


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
            raise InvalidParameterError(
                f"decay must be in (0, 1], got {decay}"
            )
        if shards < 1:
            raise InvalidParameterError(
                f"shards must be at least 1, got {shards}"
            )
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
        self.ticks = 0
        self._values = np.empty(0, dtype=np.float64)
        self._arrivals = np.empty(0, dtype=np.int64)
        self._gids = np.empty(0, dtype=np.int64)
        self._history: list[tuple[np.ndarray, np.ndarray, int]] = []

    def open(self) -> None:
        super().open()
        self.ticks = 0
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
            self._values = np.concatenate(
                [self._values, values.astype(np.float64)]
            )
            self._arrivals = np.concatenate(
                [self._arrivals, np.full(len(gids), tick, dtype=np.int64)]
            )
            self._gids = np.concatenate(
                [self._gids, gids.astype(np.int64)]
            )
        else:
            self._history.append(
                (
                    np.asarray(chunk.values, dtype=np.float64),
                    np.asarray(chunk.gids, dtype=np.int64),
                    tick,
                )
            )
        self.ticks += 1

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
        order = canonical_topk(encode(scores), gids, max(k, self.k))
        if self.mode == "incremental":
            # The maintainer's k winners (base values + arrivals) are the
            # next tick's carried candidates — the ratio argument makes
            # them exact, whatever k this emit answers.
            self._values = values[order]
            self._arrivals = arrivals[order]
            self._gids = gids[order]
        order = order[:k]
        return scores[order], gids[order]

    def close(self) -> None:
        super().close()
        self._values = np.empty(0, dtype=np.float64)
        self._arrivals = np.empty(0, dtype=np.int64)
        self._gids = np.empty(0, dtype=np.int64)
        self._history = []

    def tick_trace(self, chunk_rows: int) -> ExecutionTrace:
        """One tick's simulated kernels (summarize + carried-set merge)."""
        padded_k = network_k(self.k)
        with faults.suspended():
            trace = ExecutionTrace()
            shard_rows = max(1, chunk_rows // self.shards)
            trace.extend(
                build_trace(
                    shard_rows, padded_k, CANDIDATE_BYTES,
                    self.flags, self.device,
                )
            )
            merge = trace.launch("tick-merge")
            candidates = (1 + self.shards) * self.k
            merge.add_global_read(float(candidates) * CANDIDATE_BYTES)
            merge.add_global_write(float(self.k) * CANDIDATE_BYTES)
            trace.notes["streaming.mode"] = self.mode
            trace.notes["streaming.shards"] = self.shards
        return trace
