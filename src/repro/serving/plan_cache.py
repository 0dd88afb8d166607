"""Memoizing plan cache: pay planning and binding once per shape.

A production serving layer sees millions of queries but only a handful of
distinct *shapes* — the planner's decision depends only on
``(n, k, dtype, profile, device, recall_target, max_shards)``, never on the payload
bytes, so its cost-model evaluation (which builds full kernel traces for
every candidate algorithm) is pure and cacheable.  :class:`PlanCache`
keys an LRU map on the stable fingerprint of that plan request and stores
**bound executable plans** (:class:`~repro.plan.BoundPlan`: the typed
plan tree plus its instantiated winning kernel), so a cache hit skips
re-planning, registry lookup, kernel construction, *and* parameter
re-validation — the payload goes straight into the prepared runner.

Counters are published to the observability metrics registry:

* ``serving.plan_cache.hits`` / ``.misses`` / ``.evictions`` — counters;
* ``serving.plan_cache.size`` — gauge (current number of cached plans).

Thread safety: the map and the hit/miss/eviction counters are only ever
touched under the cache's lock (``TopKServer``'s dispatcher thread and
direct callers may race on them otherwise).  Planning and binding happen
*outside* the lock, so a slow cost-model evaluation never blocks
concurrent lookups of other shapes; two threads missing on the same new
shape may both plan it, but only the first insert is kept, so the cached
object stays stable across hits.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import RLock

import numpy as np

from repro import observability as obs
from repro.core.planner import TopKPlanner
from repro.costmodel.base import UNIFORM_FLOAT, WorkloadProfile
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec
from repro.plan import BoundPlan, TopKPlan, bind_plan
from repro.plan.plan import request_fingerprint

#: Default maximum number of cached plans; an entry is a small plan tree
#: plus one kernel instance, so the default bounds memory while covering
#: any realistic shape mix.
DEFAULT_CAPACITY = 256

#: Cache keys are plan-request fingerprints (stable hex digests).
PlanKey = str


class PlanCache:
    """LRU map from plan-request fingerprints to bound executable plans."""

    def __init__(
        self,
        planner: TopKPlanner | None = None,
        device: DeviceSpec | None = None,
        capacity: int = DEFAULT_CAPACITY,
        metrics: obs.MetricsRegistry | None = None,
        enabled: bool = True,
        max_shards: int = 1,
    ):
        if capacity < 1:
            raise InvalidParameterError(
                f"plan cache capacity must be at least 1, got {capacity}"
            )
        self.planner = planner or TopKPlanner(device)
        #: Shard budget forwarded to every planning request.  Part of the
        #: cache key: a sharding-enabled cache must never serve (or
        #: poison) single-device fingerprints on the same shape.
        self.max_shards = max_shards
        self.capacity = capacity
        #: When disabled every lookup replans (and counts as a miss) — the
        #: baseline the serve-bench compares against.
        self.enabled = enabled
        #: Explicit sink for the cache's counters; when None the registry
        #: active in the calling thread (if any) is used instead, so the
        #: cache works both standalone and inside a server.
        self.metrics = metrics
        self._entries: OrderedDict[PlanKey, BoundPlan] = OrderedDict()
        self._lock = RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- keys -------------------------------------------------------------

    def key(
        self,
        n: int,
        k: int,
        dtype: np.dtype,
        profile: WorkloadProfile = UNIFORM_FLOAT,
        recall_target: float = 1.0,
    ) -> PlanKey:
        """The memoization key: the stable fingerprint of the plan request
        (everything the planner's decision reads).

        A calibrating planner's decisions also read its store's fitted
        correction factors, so the store *epoch* (bumped on every refit
        that changes a factor) is part of the key — a drifted correction
        must never serve a plan cached under the old factors.  With
        ``calibrate=False`` (or a store that never fitted) the epoch is 0
        and keys are byte-identical to the pre-calibration cache.
        """
        epoch = 0
        if getattr(self.planner, "calibrate", False):
            store = getattr(self.planner, "calibration", None)
            if store is not None:
                epoch = store.epoch
        return request_fingerprint(
            n,
            k,
            str(np.dtype(dtype)),
            profile.name,
            self.planner.device.name,
            recall_target,
            max_shards=self.max_shards,
            calibration_epoch=epoch,
        )

    # -- the memoized calls -----------------------------------------------

    def choose(
        self,
        n: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
        profile: WorkloadProfile = UNIFORM_FLOAT,
        recall_target: float = 1.0,
    ) -> TopKPlan:
        """:meth:`TopKPlanner.choose`, paid once per distinct shape.

        A miss plans *and binds* the winner, inserting the resulting
        :class:`BoundPlan` so :meth:`bound` can serve it without another
        registry trip.
        """
        key = self.key(n, k, dtype, profile, recall_target)
        return self._lookup(key, n, k, dtype, profile, recall_target).plan

    def bound(
        self,
        n: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
        profile: WorkloadProfile = UNIFORM_FLOAT,
        recall_target: float = 1.0,
    ) -> BoundPlan:
        """The bound executable plan for a shape — the cache-hit fast
        path hands the prepared runner straight to the caller.

        Shares :meth:`choose`'s lookup, so the request is hashed once and
        hits, misses and evictions count exactly as they do there.
        """
        key = self.key(n, k, dtype, profile, recall_target)
        return self._lookup(key, n, k, dtype, profile, recall_target)

    def _lookup(
        self,
        key: PlanKey,
        n: int,
        k: int,
        dtype: np.dtype,
        profile: WorkloadProfile,
        recall_target: float,
    ) -> BoundPlan:
        """The bound plan cached under ``key``, planned and bound on a
        miss.  This is the planning seam: everything the serving layer
        executes was planned here."""
        if self.enabled:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._publish("hits")
                    return entry
        # Plan and bind outside the lock: cost-model evaluation is the
        # expensive part and must not serialize unrelated lookups.
        plan = self.planner.choose(
            n,
            k,
            dtype,
            profile,
            recall_target=recall_target,
            max_shards=self.max_shards,
        )
        entry = bind_plan(plan, self.planner.device)
        with self._lock:
            self.misses += 1
            self._publish("misses")
            if self.enabled:
                existing = self._entries.get(key)
                if existing is not None:
                    # A concurrent miss beat us to the insert; keep the
                    # first bound plan so hits stay referentially stable.
                    self._entries.move_to_end(key)
                    return existing
                self._entries[key] = entry
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    self._publish("evictions")
        return entry

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- metrics ----------------------------------------------------------

    def _publish(self, event: str) -> None:
        """Caller must hold the lock (size gauge reads the map)."""
        registry = self.metrics if self.metrics is not None else obs.active_metrics()
        if registry is None:
            return
        registry.counter(f"serving.plan_cache.{event}").inc()
        registry.gauge("serving.plan_cache.size").set(len(self._entries))
