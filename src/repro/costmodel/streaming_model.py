"""Cost model for continuous top-k maintenance (incremental vs recompute).

A streaming subscription answers the same query every tick; the planner's
choice is *how*:

* **recompute** — run the exact one-shot kernel over the whole live
  window each tick: ``T_rec = T_bitonic(W, k)``.
* **incremental** — summarize only the tick's arriving chunk down to its
  top-k candidates with the same kernel, then merge the window's live
  per-chunk summaries: ``T_inc = T_bitonic(C, k) + T_merge(L*k + k)``
  where ``C`` is the chunk size and ``L = ceil(W / C)`` the number of
  live chunks.  Per-chunk summaries are exact (any window top-k row has
  fewer than k predecessors in its own chunk), so both modes produce
  bit-identical answers — the choice is purely a cost question.

The crossover is governed by *churn*: the fraction of the window
replaced per tick (``C / W`` for a chunk-aligned window).  At low churn
the incremental path touches ~``C + (W/C + 1) * k`` elements against
recompute's ``W`` — the classic ``W/C`` streaming speedup.  As churn
approaches 1 the chunk *is* the window and incremental degrades to
recompute plus merge overhead, so :meth:`StreamingModel.choose_mode`
switches back to recompute.  Kernel phases use the same
max(global, shared) bound as :class:`~repro.costmodel.bitonic_model.
BitonicModel` (Section 7.2), with peak bandwidths, so predictions
underestimate measured times by the same Figure 17 gap.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bitonic.network import next_pow2
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.costmodel.base import UNIFORM_FLOAT, CostModel, WorkloadProfile
from repro.costmodel.bitonic_model import bitonic_seconds
from repro.errors import InvalidParameterError

#: Bytes per merged candidate: 4-byte rank value + 4-byte global row id
#: (the (key, id) candidate layout of Section 6.6).
CANDIDATE_BYTES = 8


class StreamingModel(CostModel):
    """Prices one tick of continuous top-k maintenance.

    ``predict_seconds(n, k)`` is the *incremental* per-tick cost with the
    window ``n`` and the model's configured ``chunk_rows`` — the shape
    every other model exposes, so the calibration loop and what-if
    tooling can treat it uniformly.  The streaming planner uses the
    explicit pair :meth:`incremental_tick_seconds` /
    :meth:`recompute_tick_seconds` and :meth:`choose_mode`.
    """

    algorithm = "streaming"

    def __init__(
        self,
        device=None,
        chunk_rows: int = 1 << 14,
        flags: OptimizationFlags = FULL,
    ):
        super().__init__(device)
        if chunk_rows <= 0:
            raise InvalidParameterError(
                f"chunk_rows must be positive, got {chunk_rows}"
            )
        self.chunk_rows = chunk_rows
        self.flags = flags

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        # Bound by the summarize kernel's network width, like BitonicModel.
        return 1 <= k <= 2048

    def predict_seconds(
        self,
        n: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
        profile: WorkloadProfile = UNIFORM_FLOAT,
    ) -> float:
        return self.incremental_tick_seconds(n, self.chunk_rows, k, dtype)

    # -- the two maintenance modes --------------------------------------

    def _bitonic_seconds(self, n: int, k: int, dtype: np.dtype) -> float:
        width = np.dtype(dtype).itemsize
        return bitonic_seconds(max(n, 1), next_pow2(k), width, self.flags, self.device)

    def _merge_seconds(self, candidates: int) -> float:
        # The tick merge reads every live candidate and writes back the
        # k winners; candidate counts are tiny, so it is bandwidth-bound
        # on the read side.
        merge_bytes = float(candidates + 1) * CANDIDATE_BYTES * 2.0
        return merge_bytes / self.device.global_bandwidth

    def live_chunks(self, window: int, chunk: int) -> int:
        """Summaries a chunk-aligned window of ``window`` rows holds."""
        self._validate(window, chunk)
        return max(1, math.ceil(window / chunk))

    def incremental_tick_seconds(
        self,
        window: int,
        chunk: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
    ) -> float:
        """One tick of summary maintenance: summarize chunk + merge."""
        self._validate(window, chunk)
        chunks = self.live_chunks(window, chunk)
        summarize = self._bitonic_seconds(chunk, k, dtype)
        merge = self._merge_seconds(chunks * k + k)
        return summarize + merge

    def recompute_tick_seconds(
        self,
        window: int,
        chunk: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
    ) -> float:
        """One tick of recompute: the one-shot kernel over the window."""
        self._validate(window, chunk)
        return self._bitonic_seconds(max(window, chunk), k, dtype)

    # -- the crossover policy -------------------------------------------

    def churn(self, window: int, chunk: int) -> float:
        """Fraction of the window replaced per tick."""
        self._validate(window, chunk)
        return min(1.0, chunk / max(window, chunk))

    def speedup(
        self,
        window: int,
        chunk: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
    ) -> float:
        """Predicted recompute-over-incremental per-tick ratio."""
        return self.recompute_tick_seconds(
            window, chunk, k, dtype
        ) / self.incremental_tick_seconds(window, chunk, k, dtype)

    def choose_mode(
        self,
        window: int,
        chunk: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
    ) -> str:
        """``"incremental"`` or ``"recompute"``, whichever prices cheaper.

        The churn crossover falls out of the prediction pair: high churn
        (chunk approaching the window) makes the incremental path pay
        recompute's summarize cost *plus* the merge, so recompute wins;
        everywhere below the crossover the ``window/chunk`` reuse wins.
        """
        incremental = self.incremental_tick_seconds(window, chunk, k, dtype)
        recompute = self.recompute_tick_seconds(window, chunk, k, dtype)
        return "incremental" if incremental < recompute else "recompute"

    def _validate(self, window: int, chunk: int) -> None:
        if window <= 0:
            raise InvalidParameterError(
                f"window must be positive, got {window}"
            )
        if chunk <= 0:
            raise InvalidParameterError(
                f"chunk must be positive, got {chunk}"
            )
