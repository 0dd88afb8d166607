"""Bucketed approximate top-k operator (the ``repro.approx`` tentpole).

Algorithm (Key et al., 2024, adapted to the paper's kernel vocabulary):

1. **Bucket scan** — one coalesced pass over the input; element i belongs
   to bucket ``i mod b`` (or to a seeded random bucket), and each bucket
   keeps its ``khat = ceil(k/b) * oversample`` largest elements in a
   register-resident buffer, exactly like the Appendix A per-thread list
   but with one *stripe group* per bucket.  This is the entire contact
   with the n elements: one global read of the data, one tiny candidate
   write — where the exact bitonic pipeline re-reads the shrinking data
   across its reducer rounds.
2. **Exact merge** — the ``b * khat`` candidates (with their row ids) run
   through the ordinary bitonic top-k network; the merge is exact, so any
   error comes only from a bucket holding more than ``khat`` true top-k
   elements (quantified by :mod:`repro.approx.recall`).

With ``delegate_group = g`` the scan instead reduces each run of g
consecutive elements to its delegate (Dr. Top-k) and buckets the
delegates; the merge then reads only the surviving groups' elements —
``b * khat * g`` instead of n — which is the pre-filter's global-traffic
cut, recorded in the trace's counters and notes.

Determinism: every selection ranks order-preserving codes with ties broken
toward lower row indices — a bucket's cut partitions to its khat-th code
and sorts only the survivors, the merge is :func:`canonical_topk` — and the
only randomness is the optional seeded bucket permutation: the same seed
always yields the same answer.
"""

from __future__ import annotations

import math

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.algorithms.keys import canonical_topk, encode
from repro.approx.config import ApproxConfig, default_config
from repro.approx.delegate import group_delegates, group_members
from repro.approx.recall import delegate_expected_recall, expected_recall
from repro.bitonic.kernels import build_trace
from repro.bitonic.network import next_pow2
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.bitonic.topk import BitonicTopK
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec
from repro.gpu.occupancy import (
    BlockResources,
    occupancy,
    register_spill_fraction,
)

#: Registers the scan kernel needs beyond the khat buffer entries
#: (mirrors the Appendix A register variant).
_REGISTER_OVERHEAD = 24

#: Per-thread register budget before the buffer spills to local memory.
_REGISTER_BUDGET = 64

#: Row-id bytes carried alongside each candidate key in the merge.
_ROW_ID_BYTES = 4


def _bucket_topk_codes(codes: np.ndarray, khat: int, buckets: int) -> np.ndarray:
    """Positions (into ``codes``) of each bucket's top-khat elements.

    Bucket j holds elements ``j, j + b, j + 2b, ...`` — the strided,
    coalesced assignment.  Each bucket's complemented codes are laid out
    as one row, a partition finds the row's keep-th smallest, and only the
    survivors at or below it are sorted, on (bucket, code, step): the
    bucketed analogue of :func:`canonical_topk`.  Ties keep the earlier
    (lower-index) element, matching the exact algorithms' tie-breaking;
    padding always loses ties because it occupies the final steps.  The
    result is rank-major: every bucket's best, then every bucket's second.
    """
    n = len(codes)
    steps = math.ceil(n / buckets)
    keep = min(khat, steps)
    pad = np.iinfo(codes.dtype).max
    inverted = np.full(steps * buckets, pad, dtype=codes.dtype)
    inverted[:n] = ~codes
    rows = np.ascontiguousarray(inverted.reshape(steps, buckets).T)
    kth = np.partition(rows, keep - 1, axis=1)[:, keep - 1 : keep]
    bucket, step = np.nonzero(rows <= kth)
    order = np.lexsort((step, rows[bucket, step], bucket))
    # Every bucket has at least ``keep`` survivors; take its first keep.
    counts = np.bincount(bucket, minlength=buckets)
    chosen = order[(np.cumsum(counts) - counts)[:, None] + np.arange(keep)].T
    positions = (step[chosen] * buckets + bucket[chosen]).ravel()
    return positions[positions < n]


def _estimate_inserts(
    model_n: int, buckets: int, khat: int, sorted_ascending: bool
) -> float:
    """Expected register-buffer inserts during the scan at model scale.

    Random arrival order: the i-th element of a bucket's stream inserts
    with probability ``min(1, khat / i)`` (the order-statistics argument
    of Section 4.1), giving the harmonic estimate below.  A sorted
    ascending stream is the worst case — every element inserts.
    """
    if sorted_ascending:
        return float(model_n)
    stream = max(1.0, model_n / buckets)
    return buckets * khat * (1.0 + math.log(max(stream / khat, 1.0)))


class ApproxBucketTopK(TopKAlgorithm):
    """Bucketed approximate top-k with optional delegate pre-filter."""

    name = "approx-bucket"

    #: The exact merge runs on the bitonic network, so it inherits the
    #: shared-memory bound of Section 4.3.
    max_k = BitonicTopK.max_k

    def __init__(
        self,
        device: DeviceSpec | None = None,
        config: ApproxConfig | None = None,
        flags: OptimizationFlags = FULL,
    ):
        super().__init__(device)
        self.config = config
        self.flags = flags

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        return 1 <= k <= self.max_k

    # -- execution --------------------------------------------------------

    def run(self, data: np.ndarray, k: int, model_n: int | None = None) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        model = model_n or n
        # An ascending input is the register buffer's worst case (every
        # element inserts); detect it from the functional data so the trace
        # charges the penalty, exactly like the per-thread variants do.
        with np.errstate(invalid="ignore"):
            self._input_sorted = n > 1 and bool(np.all(data[1:] >= data[:-1]))
        config = self.config or default_config(n, k)
        buckets = min(config.buckets, n)
        khat = config.khat(k)
        delegate = config.delegate_group if config.delegate_group > 1 else 0
        if delegate:
            num_groups = math.ceil(n / delegate)
            degenerate = (
                buckets >= num_groups
                or buckets == 1
                or khat >= min(k, num_groups)
                or khat >= math.ceil(num_groups / min(buckets, num_groups))
            )
        else:
            degenerate = buckets == 1 or khat >= k or khat >= math.ceil(n / buckets)
        if degenerate:
            return self._run_exact(data, k, model_n)
        if delegate:
            return self._run_delegate(
                data, k, model, model_n, config, buckets, khat, delegate
            )
        return self._run_bucketed(data, k, model, model_n, config, buckets, khat)

    def _run_exact(self, data: np.ndarray, k: int, model_n: int | None) -> TopKResult:
        """Degenerate configurations (one bucket, khat >= k or >= bucket
        capacity) select everything — run the exact algorithm outright.

        The inner run is observation-suspended (the hybrid-scheduler
        convention): its kernels belong to *this* algorithm's trace and
        are recorded once by the outer instrumentation wrapper.  Fault
        injection stays live — the launches are real device activity.
        """
        with obs.suspended():
            exact = BitonicTopK(self.device, self.flags).run(data, k, model_n=model_n)
        trace = exact.trace
        trace.notes["approx.expected_recall"] = 1.0
        trace.notes["approx.exact_degenerate"] = 1.0
        trace.notes["approx.global_bytes_saved"] = 0.0
        self._publish(1.0, 0.0)
        return self._result(exact.values, exact.indices, trace, k, len(data), model_n)

    def _run_bucketed(
        self,
        data: np.ndarray,
        k: int,
        model: int,
        model_n: int | None,
        config: ApproxConfig,
        buckets: int,
        khat: int,
    ) -> TopKResult:
        n = len(data)
        codes = encode(data)
        if config.seed is not None:
            perm = np.random.default_rng(config.seed).permutation(n)
            scan_codes = codes[perm]
        else:
            perm = None
            scan_codes = codes
        with obs.span(
            "phase:bucket-scan",
            category="phase",
            buckets=buckets,
            khat=khat,
            n=n,
        ) as phase:
            positions = _bucket_topk_codes(scan_codes, khat, buckets)
            candidates = perm[positions] if perm is not None else positions
            phase.set(candidates=len(candidates))
        values, indices = self._merge(data, codes, candidates, k)

        recall = expected_recall(model, k, config)
        trace, saved = self._bucketed_trace(
            model, k, data.dtype.itemsize, config, buckets, khat
        )
        self._annotate(trace, config, recall, saved, buckets, khat, k)
        self._publish(recall, saved)
        return self._result(values, indices, trace, k, n, model_n)

    def _run_delegate(
        self,
        data: np.ndarray,
        k: int,
        model: int,
        model_n: int | None,
        config: ApproxConfig,
        buckets: int,
        khat: int,
        delegate: int,
    ) -> TopKResult:
        n = len(data)
        codes = encode(data)
        delegates = group_delegates(data, delegate)
        effective_buckets = min(buckets, len(delegates))
        if config.seed is not None:
            perm = np.random.default_rng(config.seed).permutation(len(delegates))
            scan_delegates = delegates[perm]
        else:
            perm = None
            scan_delegates = delegates
        with obs.span(
            "phase:delegate-scan",
            category="phase",
            groups=len(delegates),
            group_size=delegate,
            buckets=effective_buckets,
            khat=khat,
        ) as phase:
            positions = _bucket_topk_codes(scan_delegates, khat, effective_buckets)
            groups = perm[positions] if perm is not None else positions
            members = group_members(n, groups, delegate)
            phase.set(surviving_groups=len(groups), candidates=len(members))
        values, indices = self._merge(data, codes, members, k)

        recall = delegate_expected_recall(model, k, config)
        trace, saved = self._delegate_trace(
            model,
            k,
            data.dtype.itemsize,
            config,
            effective_buckets,
            khat,
            delegate,
        )
        self._annotate(trace, config, recall, saved, effective_buckets, khat, k)
        trace.notes["approx.delegate_groups_kept"] = float(len(groups))
        self._publish(recall, saved)
        return self._result(values, indices, trace, k, n, model_n)

    def _merge(
        self,
        data: np.ndarray,
        codes: np.ndarray,
        candidates: np.ndarray,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k over the candidate set, ties to lower row index."""
        with obs.span(
            "phase:candidate-merge", category="phase", candidates=len(candidates)
        ):
            candidate_codes = codes[candidates]
            order = canonical_topk(candidate_codes, candidates, k)
            chosen = candidates[order]
        return data[chosen].copy(), chosen.astype(np.int64)

    # -- trace construction ----------------------------------------------

    def _scan_resources(self, khat: int, width: int) -> BlockResources:
        registers = khat * max(1, width // 4) + _REGISTER_OVERHEAD
        return BlockResources(
            threads=256,
            registers_per_thread=min(registers, self.device.registers_per_thread_limit),
        )

    def _bucketed_trace(
        self,
        model: int,
        k: int,
        width: int,
        config: ApproxConfig,
        buckets: int,
        khat: int,
    ) -> tuple[ExecutionTrace, float]:
        trace = ExecutionTrace()
        scan = trace.launch("approx-bucket-scan")
        scan.add_global_read(float(model) * width)
        candidates = buckets * khat
        scan.add_global_write(float(candidates) * (width + _ROW_ID_BYTES))
        scan.compute_ops = float(model)
        inserts = _estimate_inserts(model, buckets, khat, self._sorted_penalty(config))
        # Register-list semantics of Appendix A: every insert rescans the
        # khat-entry buffer for the whole warp.
        scan.divergent_iterations = inserts * khat
        registers = khat * max(1, width // 4) + _REGISTER_OVERHEAD
        spill = register_spill_fraction(registers, _REGISTER_BUDGET)
        if spill > 0.0:
            scan.add_global_read(inserts * spill * khat * width)
            scan.add_global_write(inserts * spill * width)
        scan.occupancy = occupancy(self.device, self._scan_resources(khat, width))
        trace.notes["approx.scan_inserts"] = inserts

        trace.extend(
            build_trace(
                max(candidates, 1),
                next_pow2(k),
                width + _ROW_ID_BYTES,
                self.flags,
                self.device,
            )
        )
        saved = self._exact_bytes(model, k, width) - trace.global_bytes
        return trace, saved

    def _delegate_trace(
        self,
        model: int,
        k: int,
        width: int,
        config: ApproxConfig,
        buckets: int,
        khat: int,
        delegate: int,
    ) -> tuple[ExecutionTrace, float]:
        trace = ExecutionTrace()
        scan = trace.launch("approx-delegate-scan")
        scan.add_global_read(float(model) * width)
        scan.add_global_write(float(buckets * khat) * _ROW_ID_BYTES)
        scan.compute_ops = float(model)
        model_groups = math.ceil(model / delegate)
        inserts = _estimate_inserts(
            model_groups, buckets, khat, self._sorted_penalty(config)
        )
        scan.divergent_iterations = inserts * khat
        scan.occupancy = occupancy(self.device, self._scan_resources(khat, width))
        trace.notes["approx.scan_inserts"] = inserts

        merge_input = min(model, buckets * khat * delegate)
        trace.extend(
            build_trace(
                max(merge_input, 1),
                next_pow2(k),
                width + _ROW_ID_BYTES,
                self.flags,
                self.device,
            )
        )
        saved = self._exact_bytes(model, k, width) - trace.global_bytes
        trace.notes["approx.merge_input"] = float(merge_input)
        return trace, saved

    def _exact_bytes(self, model: int, k: int, width: int) -> float:
        """Global traffic of the exact bitonic plan on the same shape —
        the baseline the traffic-saved counter is measured against."""
        return build_trace(
            model, next_pow2(k), width, self.flags, self.device
        ).global_bytes

    def _sorted_penalty(self, config: ApproxConfig) -> bool:
        """Whether to charge the sorted-ascending worst-case insert rate.

        A seeded permutation destroys any adversarial arrival order, so
        the penalty only applies to the strided assignment.
        """
        if config.seed is not None:
            return False
        return self._input_sorted

    def _annotate(
        self,
        trace: ExecutionTrace,
        config: ApproxConfig,
        recall: float,
        saved: float,
        buckets: int,
        khat: int,
        k: int,
    ) -> None:
        trace.notes["approx.expected_recall"] = recall
        trace.notes["approx.buckets"] = float(buckets)
        trace.notes["approx.khat"] = float(khat)
        trace.notes["approx.candidates"] = float(buckets * khat)
        trace.notes["approx.oversample"] = float(config.oversample)
        trace.notes["approx.delegate_group"] = float(config.delegate_group)
        trace.notes["approx.global_bytes_saved"] = saved

    def _publish(self, recall: float, saved: float) -> None:
        registry = obs.active_metrics()
        if registry is not None:
            registry.counter("approx.runs").inc()
            registry.gauge("approx.expected_recall").set(recall)
            registry.gauge("approx.global_bytes_saved").set(saved)

    #: Set per-run in ``run`` before trace construction.
    _input_sorted: bool = False
