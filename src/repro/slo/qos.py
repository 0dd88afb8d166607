"""Tenant QoS classes and the SLO serving policy.

A serving tier that promises one latency number to everyone promises the
wrong number to everyone: interactive dashboards need sub-deadline
answers or nothing, while batch analytics will happily take a late or
slightly-approximate answer over a rejection.  The SLO layer therefore
tags every query with a :class:`QoSClass` that fixes three contracts:

* a **relative deadline** in simulated milliseconds — added to the
  submit timestamp to form the query's absolute deadline;
* a **queue budget** — per-class admission bound, so a flood of
  best-effort traffic cannot exhaust the shared queue ahead of gold;
* **degradability/sheddability** — which rungs of the degradation ladder
  (see ``docs/serving.md``) the class consents to.

:class:`SloPolicy` bundles the class table with the ladder's tuning: the
degraded recall target (rung 1), the EDF scheduler's service-time
estimator, and the circuit-breaker policy (rung 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidParameterError
from repro.resilience.breaker import BreakerPolicy


@dataclass(frozen=True)
class QoSClass:
    """One tenant class's serving contract."""

    name: str
    #: Tie-break after deadline order: lower is more important.
    priority: int
    #: Relative deadline, in simulated milliseconds from submission.
    deadline_ms: float
    #: Maximum queries of this class queued at once; submissions past the
    #: budget are rejected with a typed ResourceExhaustedError.
    queue_budget: int
    #: May the scheduler lower this class's recall target under pressure?
    degradable: bool
    #: May the scheduler drop this class's queries (deadline shed, breaker
    #: shed) instead of running them late?
    sheddable: bool

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise InvalidParameterError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if self.queue_budget < 1:
            raise InvalidParameterError(
                f"queue_budget must be at least 1, got {self.queue_budget}"
            )


#: The default three-tier table.  Deadlines are calibrated to the bench
#: workload (exact execution of one n≈40–65k query simulates ≈0.05 ms):
#: gold gets headroom for ~8 queued exact queries, best-effort ~30.
GOLD = QoSClass(
    "gold",
    priority=0,
    deadline_ms=0.45,
    queue_budget=64,
    degradable=False,
    sheddable=False,
)
STANDARD = QoSClass(
    "standard",
    priority=1,
    deadline_ms=0.90,
    queue_budget=48,
    degradable=True,
    sheddable=False,
)
BEST_EFFORT = QoSClass(
    "best-effort",
    priority=2,
    deadline_ms=1.80,
    queue_budget=32,
    degradable=True,
    sheddable=True,
)

DEFAULT_CLASSES = (GOLD, STANDARD, BEST_EFFORT)


@dataclass(frozen=True)
class SloPolicy:
    """Everything the SLO scheduler needs to make its decisions."""

    classes: tuple[QoSClass, ...] = DEFAULT_CLASSES
    #: Rung 1: the recall target degraded queries are re-planned at.  The
    #: planner only routes to the approximate operator when a feasible
    #: config exists *and* beats every exact algorithm, so lowering the
    #: target can never make a plan slower — only cheaper.
    degraded_recall: float = 0.99
    #: EDF service-time estimator: EWMA smoothing factor and its starting
    #: estimate (simulated ms per query) before any observation.
    ewma_alpha: float = 0.2
    initial_service_ms: float = 0.05
    #: Rung 3: when/how the device circuit breaker trips.
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)

    def __post_init__(self) -> None:
        if not self.classes:
            raise InvalidParameterError("an SloPolicy needs at least one class")
        names = [qos.name for qos in self.classes]
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"duplicate QoS class names: {names}")
        if not 0.0 < self.degraded_recall <= 1.0:
            raise InvalidParameterError(
                f"degraded_recall must be in (0, 1], got {self.degraded_recall}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise InvalidParameterError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.initial_service_ms <= 0:
            raise InvalidParameterError(
                f"initial_service_ms must be positive, got {self.initial_service_ms}"
            )

    def class_named(self, name: str) -> QoSClass:
        for qos in self.classes:
            if qos.name == name:
                return qos
        raise InvalidParameterError(
            f"unknown QoS class {name!r}; known: {[qos.name for qos in self.classes]}"
        )


DEFAULT_POLICY = SloPolicy()
