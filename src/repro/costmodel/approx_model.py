"""Cost model for the bucketed approximate top-k operator.

Follows the Section 7 conventions of the other models — peak bandwidths,
no launch overheads, compose per-kernel ``max(T_g, T_k)`` — over the two
kernels of :class:`repro.approx.bucketed.ApproxBucketTopK`: the streaming
bucket scan (one global read of the data, divergence charged for the
register-buffer inserts) and the exact bitonic merge over the
``buckets * khat`` candidates.

The model also owns the planner's configuration search
(:func:`choose_config`): among power-of-two bucket counts and small
oversampling factors it returns the cheapest configuration whose analytic
expected recall (:func:`repro.approx.recall.expected_recall`) meets the
caller's target, or None when only the exact algorithms can.  The search
is a pure function of its arguments, so it is memoized.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.approx.config import ApproxConfig
from repro.approx.recall import delegate_expected_recall, expected_recall
from repro.bitonic.network import next_pow2
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.costmodel.base import UNIFORM_FLOAT, CostModel, WorkloadProfile
from repro.costmodel.bitonic_model import bitonic_seconds
from repro.gpu import faults
from repro.gpu.occupancy import register_spill_fraction

#: Mirror of the operator's scan-kernel register accounting.
_REGISTER_OVERHEAD = 24
_REGISTER_BUDGET = 64
_ROW_ID_BYTES = 4

#: Candidate bucket counts the planner searches (powers of two keep the
#: merge network shapes friendly and the search tiny).
_BUCKET_CANDIDATES = tuple(1 << i for i in range(0, 13))
_OVERSAMPLE_CANDIDATES = (1, 2, 3, 4)

#: Distinct (n, k, recall target, dtype, device, profile) searches kept.
CONFIG_CACHE_SIZE = 1024


class ApproxTopKModel(CostModel):
    """Predicts bucketed approximate top-k runtime for a configuration."""

    algorithm = "approx-bucket"

    def __init__(
        self,
        device=None,
        config: ApproxConfig | None = None,
        flags: OptimizationFlags = FULL,
    ):
        super().__init__(device)
        self.config = config or ApproxConfig()
        self.flags = flags

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        return 1 <= k <= 2048

    def expected_recall(self, n: int, k: int) -> float:
        """Analytic recall of the modeled configuration on (n, k)."""
        if self.config.delegate_group > 1:
            return delegate_expected_recall(n, k, self.config)
        return expected_recall(n, k, self.config)

    def predict_seconds(
        self,
        n: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
        profile: WorkloadProfile = UNIFORM_FLOAT,
    ) -> float:
        dtype = np.dtype(dtype)
        width = dtype.itemsize
        config = self.config
        buckets = min(config.buckets, n)
        khat = config.khat(k)
        delegate = config.delegate_group if config.delegate_group > 1 else 0
        degenerate = (
            buckets == 1 or khat >= k or khat >= math.ceil(n / buckets)
        )
        if degenerate:
            return bitonic_seconds(n, next_pow2(k), width, self.flags, self.device)

        # Scan kernel: one full read, candidate write, divergent inserts.
        if delegate:
            stream = math.ceil(n / delegate)
            written = buckets * khat * _ROW_ID_BYTES
        else:
            stream = n
            written = buckets * khat * (width + _ROW_ID_BYTES)
        if profile.every_element_inserts and config.seed is None:
            inserts = float(stream)
        else:
            per_bucket = max(1.0, stream / buckets)
            inserts = buckets * khat * (
                1.0 + math.log(max(per_bucket / khat, 1.0))
            )
        global_time = (n * width + written) / self.device.global_bandwidth
        registers = khat * max(1, width // 4) + _REGISTER_OVERHEAD
        spill = register_spill_fraction(registers, _REGISTER_BUDGET)
        if spill > 0.0:
            global_time += (
                inserts * spill * khat * width
            ) / self.device.global_bandwidth
        divergence_time = (
            inserts
            * khat
            * self.device.warp_size
            / (self.device.total_cores * self.device.clock_hz)
        )
        scan_time = max(global_time, divergence_time)

        if delegate:
            merge_input = min(n, buckets * khat * delegate)
        else:
            merge_input = buckets * khat
        return scan_time + bitonic_seconds(
            max(merge_input, 1),
            next_pow2(k),
            width + _ROW_ID_BYTES,
            self.flags,
            self.device,
        )


@functools.lru_cache(maxsize=CONFIG_CACHE_SIZE)
def choose_config(
    n: int,
    k: int,
    recall_target: float,
    dtype: np.dtype = np.dtype(np.float32),
    device=None,
    profile: WorkloadProfile = UNIFORM_FLOAT,
) -> tuple[ApproxConfig, float, float] | None:
    """Cheapest approximate configuration meeting ``recall_target``.

    Returns ``(config, predicted_seconds, expected_recall)`` or None when
    no searched configuration is genuinely approximate (non-degenerate)
    and meets the target — the planner then stays exact.  A target of 1.0
    always returns None: only the exact algorithms guarantee it.

    The search prices models, which is host-side math, so it runs with
    fault injection suspended; it is pure and therefore memoized (the
    returned tuple and its frozen config are shared by every caller).
    """
    if not 0.0 < recall_target <= 1.0:
        raise ValueError(
            f"recall_target must be in (0, 1], got {recall_target}"
        )
    if recall_target >= 1.0:
        return None
    best: tuple[ApproxConfig, float, float] | None = None
    for buckets in _BUCKET_CANDIDATES:
        if buckets > n:
            break
        for oversample in _OVERSAMPLE_CANDIDATES:
            config = ApproxConfig(buckets=buckets, oversample=oversample)
            khat = config.khat(k)
            # Skip configurations that spill registers or degenerate to
            # the exact path (nothing saved, nothing to model).
            if khat * max(1, dtype.itemsize // 4) + _REGISTER_OVERHEAD > (
                _REGISTER_BUDGET
            ):
                continue
            if buckets == 1 or khat >= k or khat >= math.ceil(n / buckets):
                continue
            recall = expected_recall(n, k, config)
            if recall < recall_target:
                continue
            model = ApproxTopKModel(device, config)
            with faults.suspended():
                seconds = model.predict_seconds(n, k, dtype, profile)
            if best is None or seconds < best[1]:
                best = (config, seconds, recall)
    return best
