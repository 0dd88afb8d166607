"""Cost-model-driven algorithm selection.

The paper's closing motivation for its cost models: "a query planner needs
to choose a top-k implementation."  :class:`TopKPlanner` evaluates every
algorithm's cost model for a configuration, discards infeasible ones (the
per-thread heap beyond its shared-memory capacity), and picks the cheapest.

With the default device this reproduces the headline decision boundary:
bitonic top-k for small k, radix select for large k, with the crossover in
the hundreds (k = 256 in the paper's measurements).
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.costmodel.base import UNIFORM_FLOAT, CostModel, WorkloadProfile
from repro.costmodel.bitonic_model import BitonicModel
from repro.costmodel.calibration import CalibratedModel, CalibrationStore
from repro.costmodel.other_models import BucketSelectModel, PerThreadModel
from repro.costmodel.radik_model import RadiKModel
from repro.costmodel.radix_model import RadixSelectModel, SortModel
from repro.errors import InvalidParameterError, ResourceExhaustedError
from repro.gpu.device import DeviceSpec, get_device
from repro.plan.plan import PlanChoice, TopKPlan

__all__ = ["PlanChoice", "TopKPlan", "TopKPlanner"]


class TopKPlanner:
    """Chooses a top-k algorithm via the Section 7 cost models."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        calibration: CalibrationStore | None = None,
        calibrate: bool = False,
    ):
        """``calibrate=True`` prices every candidate through a
        :class:`~repro.costmodel.calibration.CalibratedModel` over
        ``calibration`` (a fresh store when none is given), so fitted
        per-kernel correction factors move the ranking.  The default
        ``calibrate=False`` never constructs the wrappers — decisions,
        fingerprints, and the EXPLAIN goldens stay bit-identical to the
        uncalibrated planner even when a store is attached.
        """
        self.device = device or get_device()
        self.calibrate = bool(calibrate)
        self.calibration = calibration
        models: list[CostModel] = [
            BitonicModel(self.device),
            RadixSelectModel(self.device),
            RadiKModel(self.device),
            SortModel(self.device),
            PerThreadModel(self.device),
            BucketSelectModel(self.device),
        ]
        if self.calibrate:
            if self.calibration is None:
                self.calibration = CalibrationStore()
            models = [
                CalibratedModel(model, self.calibration) for model in models
            ]
        self.models = models

    def choose(
        self,
        n: int,
        k: int,
        dtype: np.dtype = np.dtype(np.float32),
        profile: WorkloadProfile = UNIFORM_FLOAT,
        recall_target: float = 1.0,
        max_shards: int = 1,
    ) -> TopKPlan:
        """Rank all feasible algorithms and return the cheapest as a
        typed physical plan (a :class:`~repro.plan.TopKPlan` whose root is
        an explicit :class:`~repro.plan.Fallback` tree over the ranking).

        ``recall_target`` below 1.0 additionally lets the planner consider
        the bucketed approximate operator: it is chosen iff a configuration
        exists whose analytic expected recall meets the target *and* whose
        predicted time beats every exact algorithm.  At the default 1.0 the
        approximate model is never even constructed — the decision is
        bit-identical to the exact-only planner.

        ``max_shards`` above 1 additionally lets the planner consider
        partition-parallel plans: when n reaches the per-device threshold
        (:data:`~repro.costmodel.sharding_model.SHARD_MIN_ROWS`) and the
        sharding cost model beats every single-device candidate, the plan's
        root becomes a :class:`~repro.plan.Merge` over per-shard
        ``Scan -> TopK`` subtrees, with the exact single-device ranking as
        its fallback alternatives.  At the default 1 the sharding model is
        never consulted — decisions are bit-identical to the single-device
        planner.
        """
        if n <= 0 or k <= 0 or k > n:
            raise InvalidParameterError(
                f"invalid top-k configuration: n = {n}, k = {k}"
            )
        if not 0.0 < recall_target <= 1.0:
            raise InvalidParameterError(
                f"recall_target must be in (0, 1], got {recall_target}"
            )
        if isinstance(max_shards, bool) or not isinstance(
            max_shards, (int, np.integer)
        ):
            raise InvalidParameterError(
                f"max_shards must be an integer, got {type(max_shards).__name__}"
            )
        if max_shards < 1:
            raise InvalidParameterError(
                f"max_shards must be at least 1, got {max_shards}"
            )
        dtype = np.dtype(dtype)
        with obs.span(
            "plan",
            category="planner",
            n=n,
            k=k,
            dtype=str(dtype),
            profile=profile.name,
        ) as span:
            ranking: list[tuple[str, float]] = []
            infeasible: list[str] = []
            for model in self.models:
                if not model.supports(n, k, dtype):
                    infeasible.append(model.algorithm)
                    continue
                try:
                    predicted = model.predict_seconds(n, k, dtype, profile)
                except ResourceExhaustedError:
                    # A model that claims support but hits a hard resource
                    # limit while costing the configuration (the per-thread
                    # heap's occupancy calculation at large k) is simply
                    # not a candidate — skip it, don't surface the error.
                    infeasible.append(model.algorithm)
                    continue
                ranking.append((model.algorithm, predicted))
            if not ranking:
                raise ResourceExhaustedError(
                    f"no algorithm can run n = {n}, k = {k} ({dtype}) on "
                    f"{self.device.name}; infeasible: {', '.join(infeasible)}"
                )
            ranking.sort(key=lambda item: item[1])
            best_name, best_time = ranking[0]
            approx_config = None
            plan_recall = 1.0
            if recall_target < 1.0:
                from repro.costmodel.approx_model import choose_config

                approx = choose_config(
                    n, k, recall_target, dtype, self.device, profile
                )
                if approx is not None and approx[1] < best_time:
                    approx_config, approx_time, plan_recall = approx
                    best_name = "approx-bucket"
                    best_time = approx_time
                    ranking.insert(0, (best_name, best_time))
            shard_root = None
            chosen_shards = 1
            if max_shards > 1 and approx_config is None:
                from repro.costmodel.sharding_model import (
                    SHARD_MIN_ROWS,
                    choose_shards,
                )

                choice = None
                if n >= SHARD_MIN_ROWS:
                    choice = choose_shards(
                        n, k, dtype, profile, self.device, max_shards
                    )
                if (
                    choice is not None
                    and choice.shards > 1
                    and choice.seconds < best_time
                ):
                    from repro.plan.nodes import Fallback
                    from repro.plan.plan import build_fallback
                    from repro.sharding.partition import build_sharded_plan

                    merge = build_sharded_plan(
                        n,
                        k,
                        shards=choice.shards,
                        dtype=str(dtype),
                        algorithm=choice.inner,
                        predicted_seconds=choice.seconds,
                    )
                    # The single-device ranking stays behind the sharded
                    # winner, so a lost shard fleet degrades through the
                    # same chain a single device would.
                    exact = build_fallback(
                        ranking,
                        n=n,
                        k=k,
                        dtype=str(dtype),
                        recall_target=recall_target,
                    )
                    shard_root = Fallback(
                        alternatives=(merge, *exact.alternatives)
                    )
                    chosen_shards = choice.shards
                    best_name = "sharded"
                    best_time = choice.seconds
                    ranking.insert(0, (best_name, best_time))
            plan = TopKPlan(
                algorithm=best_name,
                predicted_seconds=best_time,
                candidates=tuple(ranking),
                infeasible=tuple(infeasible),
                recall_target=recall_target,
                approx_config=approx_config,
                expected_recall=plan_recall,
                n=n,
                k=k,
                dtype=str(dtype),
                profile=profile.name,
                device=self.device.name,
                root=shard_root,
                shards=chosen_shards,
            )
            if span is not obs.NULL_SPAN:
                span.set(
                    algorithm=best_name,
                    predicted_ms=best_time * 1e3,
                    candidates=len(ranking),
                    plan_fingerprint=plan.fingerprint(),
                )
            registry = obs.active_metrics()
            if registry is not None:
                registry.counter("planner.decisions", algorithm=best_name).inc()
                registry.gauge("planner.predicted_ms", algorithm=best_name).set(
                    best_time * 1e3
                )
        return plan

    def crossover_k(
        self,
        n: int,
        dtype: np.dtype = np.dtype(np.float32),
        profile: WorkloadProfile = UNIFORM_FLOAT,
        max_k: int = 2048,
    ) -> int | None:
        """Smallest power-of-two k at which the radix family overtakes
        bitonic.

        The headline decision boundary of the evaluation (bitonic wins up
        to the crossover, radix beyond).  The radix side is the *family
        minimum* — the cheaper of the paper's 2018 strawman
        (:class:`RadixSelectModel`) and the RadiK-style adaptive kernel
        (:class:`RadiKModel`), so the boundary reflects the best radix
        implementation available to the planner.  Returns None if bitonic
        wins everywhere up to ``max_k``.
        """
        bitonic = BitonicModel(self.device)
        radix_family = (RadixSelectModel(self.device), RadiKModel(self.device))
        k = 1
        while k <= max_k:
            # Clamp before doing anything else: past k = n the comparison
            # is frozen at k = n, and a k > n must never be returned.
            effective_k = min(k, n)
            # Support is checked *before* costing — an unsupported bitonic
            # configuration simply is the crossover; asking its model for a
            # prediction first could raise instead.
            if not bitonic.supports(n, effective_k, dtype):
                return effective_k
            radix_time = min(
                model.predict_seconds(n, effective_k, dtype, profile)
                for model in radix_family
            )
            bitonic_time = bitonic.predict_seconds(n, effective_k, dtype, profile)
            if radix_time < bitonic_time:
                return effective_k
            k *= 2
        return None
