"""SLO-aware thread server: deadlines and QoS on the production front door.

:class:`SloTopKServer` layers the :mod:`repro.slo` decision core onto
the thread-based :class:`~repro.serving.TopKServer`:

* :meth:`submit` takes ``qos=`` and ``deadline_ms=``; per-class queue
  budgets are enforced at admission (typed
  :class:`~repro.errors.ResourceExhaustedError`) on top of the base
  server's global bound;
* each dispatch cycle runs the backlog through
  :class:`~repro.slo.scheduler.SloScheduler` — EDF ordering, overdue
  shedding (futures fail with
  :class:`~repro.errors.DeadlineExceededError`), and recall degradation
  under projected overrun;
* a :class:`~repro.resilience.CircuitBreaker` watches the batcher's
  fallback counters: repeated device faults trip it open, after which
  sheddable queries fail fast until a cooldown (measured on the server's
  simulated clock) and a successful half-open probe cycle close it.

Deadlines are *simulated-time* deadlines against the server's simulated
clock (accumulated execution cost), matching the deterministic
simulator; wall-clock queue wait is still recorded per query.  For
repeatable overload experiments prefer :func:`repro.slo.simulate` —
thread timing makes drained-batch boundaries, and therefore decision
logs, machine-dependent here.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import numpy as np

from repro.errors import InvalidParameterError, ResourceExhaustedError
from repro.resilience.breaker import CircuitBreaker
from repro.serving.batcher import QueryOutcome
from repro.serving.scheduler import TopKServer
from repro.slo.qos import DEFAULT_POLICY, SloPolicy
from repro.slo.scheduler import SloScheduler


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
        if breaker is not None:
            self.breaker: CircuitBreaker | None = breaker
        elif enable_breaker:
            self.breaker = CircuitBreaker(
                policy.breaker, name=self.device.name, metrics=self.metrics
            )
        else:
            self.breaker = None
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
        future: Future = Future()
        request.future = future
        request.qos = qos_class.name
        request.submitted_wall = time.perf_counter()
        request.submitted_sim_ms = self._sim_now_ms()
        request.deadline_ms = request.submitted_sim_ms + relative
        with self._lock:
            if self._closed:
                raise InvalidParameterError("cannot submit to a closed server")
            if len(self._pending) + self._in_flight >= self.max_pending:
                self.metrics.counter("serving.rejected").inc()
                raise ResourceExhaustedError(
                    f"serving queue is full ({self.max_pending} queries "
                    f"pending); shedding load"
                )
            queued_in_class = sum(
                1
                for pending in self._pending
                if pending.qos == qos_class.name
            )
            rejection = self.slo_scheduler.admit(
                qos_class.name, queued_in_class
            )
            if rejection is not None:
                self.metrics.counter("serving.rejected").inc()
                raise self.slo_scheduler.rejection_error(rejection)
            self._pending.append(request)
            self.metrics.counter("serving.submitted").inc()
            self.metrics.gauge("serving.queue_depth").set(len(self._pending))
            self._work_ready.notify()
        return future

    # -- dispatch hooks ----------------------------------------------------

    def _prepare(self, drained: list) -> list:
        now_ms = self._sim_now_ms()
        if self.breaker is not None and not self.breaker.allow(now_ms):
            drained, shed = self.slo_scheduler.breaker_shed(drained)
            self._fail_shed(shed)
        to_run, shed = self.slo_scheduler.prepare(drained, now_ms)
        self._fail_shed(shed)
        for request in to_run:
            if not request.degraded:
                self.slo_scheduler.note_run(request)
        return to_run

    def _fail_shed(self, shed: list) -> None:
        for request, decision, error in shed:
            self.metrics.counter("serving.shed", qos=request.qos).inc()
            self.metrics.counter("serving.failed").inc()
            self._release(1)
            if request.future is not None:
                request.future.set_exception(error)

    def _run_group(self, group) -> None:
        fallbacks_before = (
            self.batcher.fallback_queries + self.batcher.batch_fallbacks
        )
        sim_before = self.batcher.simulated_ms_total
        super()._run_group(group)
        delta_ms = self.batcher.simulated_ms_total - sim_before
        for _ in group:
            self.slo_scheduler.observe_service(delta_ms / len(group))
        if self.breaker is not None:
            now_ms = self._sim_now_ms()
            faulted = (
                self.batcher.fallback_queries + self.batcher.batch_fallbacks
                > fallbacks_before
            )
            if faulted:
                self.breaker.record_failure(now_ms)
            else:
                self.breaker.record_success(now_ms)
        # Deadline accounting: a query that *finished* late still counts
        # against goodput even though its future resolved successfully.
        now_ms = self._sim_now_ms()
        for request in group:
            if request.deadline_ms is None or request.future is None:
                continue
            if not request.future.done():
                continue
            if request.future.exception() is not None:
                continue
            outcome = request.future.result()
            if isinstance(outcome, QueryOutcome):
                met = now_ms <= request.deadline_ms
                self.metrics.counter(
                    "serving.deadline_met" if met else "serving.deadline_missed",
                    qos=request.qos or "none",
                ).inc()

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        stats = super().stats()
        stats["slo"] = {
            "ewma_service_ms": self.slo_scheduler.ewma_service_ms,
            "decisions": len(self.slo_scheduler.decisions),
            "breaker": self.breaker.stats() if self.breaker else None,
        }
        return stats
