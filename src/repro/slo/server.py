"""SLO-aware thread server: deadlines and QoS on the production front door.

:class:`SloTopKServer` mounts the :mod:`repro.slo` serving cycle on the
thread-based :class:`~repro.serving.TopKServer`:

* :meth:`submit` takes ``qos=`` and ``deadline_ms=`` and runs the one
  admission step (:meth:`~repro.slo.scheduler.SloScheduler.admit_request`:
  the global bound, then the class's queue budget; typed
  :class:`~repro.errors.ResourceExhaustedError`);
* each drained backlog is one dispatch cycle
  (:meth:`~repro.slo.scheduler.SloScheduler.dispatch` with no limit) —
  EDF ordering, overdue shedding (futures fail with
  :class:`~repro.errors.DeadlineExceededError`), recall degradation
  under projected overrun, and one
  :class:`~repro.resilience.CircuitBreaker` check: repeated device
  faults trip it open, after which sheddable queries fail fast until a
  cooldown and a successful half-open probe cycle close it.

:func:`repro.slo.simulate` runs the same cycle, one request per cycle.
Deadlines and the breaker cooldown are *simulated time* on this
server's clock: the executed cost, plus one service estimate per
request the open breaker sheds (so the cooldown also ends under
sheddable-only traffic).  Decisions are deterministic for a given
backlog and clock; which requests share a drain depends on timing.
"""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np

from repro.resilience.breaker import CircuitBreaker
from repro.serving.scheduler import TopKServer
from repro.slo.qos import DEFAULT_POLICY, SloPolicy
from repro.slo.scheduler import SHED_BREAKER, SloScheduler


class SloTopKServer(TopKServer):
    """A :class:`TopKServer` with deadlines, QoS classes, and the ladder."""

    def __init__(
        self,
        policy: SloPolicy = DEFAULT_POLICY,
        breaker: CircuitBreaker | None = None,
        enable_breaker: bool = True,
        auto_start: bool = True,
        **kwargs,
    ):
        super().__init__(auto_start=False, **kwargs)
        self.policy = policy
        self.slo_scheduler = SloScheduler(
            policy,
            device=self.device,
            profile=self.batcher.profile,
            metrics=self.metrics,
        )
        if breaker is None and enable_breaker:
            breaker = CircuitBreaker(
                policy.breaker, name=self.device.name, metrics=self.metrics
            )
        self.breaker = breaker
        #: Simulated ms the clock moved without executing: one service
        #: estimate per request shed by the open breaker.
        self._shed_ms = 0.0
        if auto_start:
            self.start()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        data: np.ndarray | None = None,
        k: int = 1,
        table: str | None = None,
        column: str | None = None,
        recall_target: float = 1.0,
        qos: str = "standard",
        deadline_ms: float | None = None,
    ) -> Future:
        """Enqueue one query under an SLO contract.

        ``deadline_ms`` is relative (simulated ms from now); omitted, the
        QoS class's default applies.  Raises a typed
        :class:`~repro.errors.ResourceExhaustedError` when either the
        global bound or the class's queue budget is exhausted.
        """
        qos_class = self.policy.class_named(qos)
        request = self._make_request(data, k, table, column, recall_target)
        relative = deadline_ms if deadline_ms is not None else qos_class.deadline_ms
        request.qos = qos_class.name
        request.submitted_sim_ms = self._sim_now_ms()
        request.deadline_ms = request.submitted_sim_ms + relative
        return self._enqueue(request)

    def _admit(self, request) -> None:
        self.slo_scheduler.admit_request(
            request, self._pending, self.max_pending, self._in_flight
        )

    # -- dispatch ----------------------------------------------------------

    def _sim_now_ms(self) -> float:
        return super()._sim_now_ms() + self._shed_ms

    def _serve(self, drained: list) -> None:
        cycle = self.slo_scheduler.dispatch(drained, self._sim_now_ms(), self.breaker)
        for request, decision, error in cycle.shed:
            if decision.action == SHED_BREAKER:
                self._shed_ms += self.slo_scheduler.ewma_service_ms
            self.metrics.counter("serving.shed", qos=request.qos).inc()
            self._resolve([request], error)
        error = None
        try:
            for group, result in self.batcher.serve(cycle.run):
                if isinstance(result, Exception):
                    error = result
                else:
                    # A query that *finished* late still counts against
                    # goodput even though its future resolves successfully.
                    verdicts = cycle.settle(group, result, self._sim_now_ms())
                    for request, met in zip(group, verdicts):
                        name = "met" if met else "missed"
                        self.metrics.counter(
                            f"serving.deadline_{name}", qos=request.qos
                        ).inc()
                self._resolve(group, result)
        finally:
            cycle.record(self._sim_now_ms(), error)

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        stats = super().stats()
        stats["slo"] = {
            "ewma_service_ms": self.slo_scheduler.ewma_service_ms,
            "decisions": len(self.slo_scheduler.decisions),
            "breaker": self.breaker.stats() if self.breaker else None,
        }
        return stats
