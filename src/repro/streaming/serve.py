"""SLO-aware stream serving: per-tick deadlines on a sustained load.

A subscription served to a tenant inherits the tenant's
:class:`~repro.slo.qos.QoSClass` contract, applied *per tick*: every
tick must deliver its refreshed top-k within the class deadline
(simulated milliseconds), under the open-loop sustained load of one
chunk arriving per tick whether or not the previous tick is paid for.

The degradation ladder is the SLO layer's, re-based on ticks:

1. **degrade** — when the EWMA-projected tick time overruns the
   deadline and the class consents, the maintenance plan is switched to
   the cheap one in place
   (:meth:`~repro.streaming.window.WindowTopK.degrade_to_incremental` —
   exact, so answers stay bit-equal);
2. **shed** — still projected to overrun and the class is sheddable:
   the tick's chunk is absorbed (the window must stay current) but the
   emit is shed, recorded as a :class:`~repro.errors.
   DeadlineExceededError` outcome rather than a late answer;
3. **breaker** — each missed tick is a failure of the policy's
   :class:`~repro.resilience.CircuitBreaker`; once it trips open, the
   serve loop stops rather than falling arbitrarily far behind.

The projection is :class:`~repro.slo.scheduler.SloScheduler`'s EWMA
service estimate, reset to ``initial_service_ms`` on degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.errors import DeadlineExceededError, InvalidParameterError
from repro.resilience.breaker import OPEN, CircuitBreaker
from repro.slo.qos import DEFAULT_POLICY, SloPolicy
from repro.slo.scheduler import SloScheduler
from repro.streaming.subscription import Subscription
from repro.streaming.window import WindowTopK

#: Tick statuses a serve loop records, in ladder order.
TICK_STATUSES = ("ok", "degraded", "shed", "breaker-open")


@dataclass(frozen=True)
class TickOutcome:
    """One served tick's verdict under the deadline contract."""

    tick: int
    status: str
    simulated_ms: float
    deadline_ms: float
    projected_ms: float
    missed: bool
    #: The typed error a shed tick maps to (mirrors the request path's
    #: DeadlineExceededError contract); None for delivered ticks.
    error: str | None = None


@dataclass
class StreamServeReport:
    """The serve loop's full per-tick record plus summary statistics."""

    qos: str
    deadline_ms: float
    outcomes: list[TickOutcome] = field(default_factory=list)

    @property
    def ticks(self) -> int:
        return len(self.outcomes)

    @property
    def delivered(self) -> int:
        return sum(
            1 for outcome in self.outcomes
            if outcome.status in ("ok", "degraded")
        )

    @property
    def degraded_ticks(self) -> int:
        return sum(
            1 for outcome in self.outcomes if outcome.status == "degraded"
        )

    @property
    def shed_ticks(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == "shed")

    @property
    def breaker_tripped(self) -> bool:
        return any(
            outcome.status == "breaker-open" for outcome in self.outcomes
        )

    @property
    def deadline_hit_rate(self) -> float:
        if not self.outcomes:
            return 1.0
        hits = sum(1 for outcome in self.outcomes if not outcome.missed)
        return hits / len(self.outcomes)

    @property
    def p99_tick_ms(self) -> float:
        times = [
            outcome.simulated_ms
            for outcome in self.outcomes
            if outcome.status != "breaker-open"
        ]
        if not times:
            return 0.0
        return float(np.percentile(np.asarray(times), 99))

    def to_dict(self) -> dict:
        return {
            "qos": self.qos,
            "deadline_ms": self.deadline_ms,
            "ticks": self.ticks,
            "delivered": self.delivered,
            "degraded_ticks": self.degraded_ticks,
            "shed_ticks": self.shed_ticks,
            "breaker_tripped": self.breaker_tripped,
            "deadline_hit_rate": self.deadline_hit_rate,
            "p99_tick_ms": self.p99_tick_ms,
            "outcomes": [
                {
                    "tick": outcome.tick,
                    "status": outcome.status,
                    "simulated_ms": outcome.simulated_ms,
                    "deadline_ms": outcome.deadline_ms,
                    "projected_ms": outcome.projected_ms,
                    "missed": outcome.missed,
                    "error": outcome.error,
                }
                for outcome in self.outcomes
            ],
        }

    def render(self) -> str:
        lines = [
            f"stream serve: qos={self.qos} deadline={self.deadline_ms:.2f} ms",
            f"  ticks {self.ticks}  delivered {self.delivered}  "
            f"degraded {self.degraded_ticks}  shed {self.shed_ticks}",
            f"  deadline hit rate {self.deadline_hit_rate:6.1%}   "
            f"p99 tick {self.p99_tick_ms:.4f} ms   "
            f"breaker {'OPEN' if self.breaker_tripped else 'closed'}",
        ]
        return "\n".join(lines)


def serve_stream(
    subscription: Subscription,
    ticks: int,
    policy: SloPolicy = DEFAULT_POLICY,
    qos: str = "standard",
) -> StreamServeReport:
    """Drive ``ticks`` ticks of the subscription under per-tick deadlines.

    The subscription must have an attached source (``Session.subscribe``
    attaches one); each tick pulls the next chunk — sustained open-loop
    load — and walks the degradation ladder before paying for the emit.
    """
    if ticks < 1:
        raise InvalidParameterError(f"ticks must be at least 1, got {ticks}")
    qos_class = policy.class_named(qos)
    report = StreamServeReport(qos=qos, deadline_ms=qos_class.deadline_ms)
    estimator = SloScheduler(policy)
    breaker = CircuitBreaker(policy.breaker)
    clock_ms = 0.0
    for tick in range(ticks):
        if breaker.state == OPEN:
            # Rung 3: the stream's breaker is open — stop serving rather
            # than deliver every remaining answer late.
            report.outcomes.append(
                TickOutcome(
                    tick=tick,
                    status="breaker-open",
                    simulated_ms=0.0,
                    deadline_ms=qos_class.deadline_ms,
                    projected_ms=estimator.ewma_service_ms,
                    missed=True,
                    error=DeadlineExceededError.__name__,
                )
            )
            break
        status = "ok"
        if qos_class.degradable and estimator.ewma_service_ms > qos_class.deadline_ms:
            maintainer = subscription.maintainer
            if isinstance(maintainer, WindowTopK):
                if maintainer.degrade_to_incremental():
                    subscription.mode = maintainer.mode
                    status = "degraded"
                    # The cheap plan invalidates the expensive plan's
                    # history; re-project from one cheap tick.
                    estimator.ewma_service_ms = policy.initial_service_ms
        projected = estimator.ewma_service_ms
        shed = (
            projected > qos_class.deadline_ms
            and status != "degraded"
            and qos_class.sheddable
        )
        result = subscription.step(emit=not shed)
        observed = result.simulated_ms
        missed = shed or observed > qos_class.deadline_ms
        if shed:
            status = "shed"
        report.outcomes.append(
            TickOutcome(
                tick=tick,
                status=status,
                simulated_ms=observed,
                deadline_ms=qos_class.deadline_ms,
                projected_ms=projected,
                missed=missed,
                error=DeadlineExceededError.__name__ if shed else None,
            )
        )
        clock_ms += observed
        if missed:
            breaker.record_failure(clock_ms)
        else:
            breaker.record_success(clock_ms)
        estimator.observe_service(observed)
        registry = obs.active_metrics()
        if registry is not None:
            registry.counter("streaming.served_ticks", status=status).inc()
    return report
