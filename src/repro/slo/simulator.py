"""Deterministic open-loop serving simulation in simulated time.

The thread-based :class:`~repro.serving.TopKServer` is the production
front door, but threads make overload experiments unrepeatable: OS
scheduling decides what is in each drained batch.  The simulator replays
the same serving pipeline — plan cache, cross-query batcher, scheduler
decision core, circuit breaker — as a **discrete-event loop over
simulated milliseconds**: queries arrive at their trace timestamps, the
clock advances only by executed kernels' simulated cost, and every
admission/degradation/shedding choice lands in a decision log.  Same
seed, same trace ⇒ bit-identical answers, decisions, and latency
digests; that is the property the overload test suite and the
``slo-bench`` entry of CI's ``smoke`` matrix pin down.

Dispatch is per-query EDF: every cycle the scheduler re-evaluates the
whole queue against the current clock (shedding newly-overdue work,
degrading queries whose projection slipped), then exactly one query —
the earliest-deadline survivor — executes and the clock advances by its
simulated cost.  Re-evaluating between executions is what lets the
ladder react *during* a burst instead of after it; the threaded server
approximates the same policy at drained-batch granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.approx.recall import measured_recall
from repro.costmodel.base import UNIFORM_FLOAT, WorkloadProfile
from repro.errors import ResourceExhaustedError
from repro.gpu.device import DeviceSpec, get_device
from repro.observability.metrics import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.serving.batcher import CrossQueryBatcher, ServingRequest
from repro.serving.plan_cache import PlanCache
from repro.slo.arrivals import OpenLoopWorkload, SloQuery
from repro.slo.qos import DEFAULT_POLICY
from repro.slo.scheduler import (
    DEGRADE,
    REJECT,
    RUN,
    Decision,
    SloScheduler,
)

#: Global in-flight bound (the pre-SLO server's only defense, kept for
#: both arms so FIFO vs SLO differences come from policy alone).
DEFAULT_MAX_PENDING = 512


@dataclass
class ServedAnswer:
    """The fate of one trace query."""

    index: int
    qos: str
    n: int
    k: int
    arrival_ms: float
    deadline_ms: float
    #: Final disposition: run / degrade / shed-* / reject.
    action: str
    #: Deadline met: the query finished at or before its deadline.
    ok: bool
    start_ms: float | None = None
    finish_ms: float | None = None
    simulated_ms: float = 0.0
    error: str | None = None
    degraded: bool = False
    #: Advertised recall floor (the degraded config's analytic expected
    #: recall; 1.0 for exact answers).
    expected_recall: float = 1.0
    #: Empirical recall vs. the exact top-k of the same window — filled
    #: for degraded answers so the SLO contract is *verified*, not
    #: asserted.
    measured_recall: float | None = None
    values: np.ndarray | None = field(default=None, repr=False)
    indices: np.ndarray | None = field(default=None, repr=False)

    @property
    def latency_ms(self) -> float | None:
        if self.finish_ms is None:
            return None
        return self.finish_ms - self.arrival_ms

    @property
    def queue_wait_ms(self) -> float | None:
        if self.start_ms is None:
            return None
        return self.start_ms - self.arrival_ms


@dataclass
class SimulationResult:
    """One (trace, scheduler) run's complete accounting."""

    scheduler: str
    workload: dict
    answers: list[ServedAnswer]
    decisions: list[Decision]
    metrics: MetricsRegistry
    makespan_ms: float
    breaker: dict | None = None

    @property
    def offered(self) -> int:
        return len(self.answers)

    @property
    def met_deadline(self) -> int:
        return sum(1 for answer in self.answers if answer.ok)

    @property
    def goodput(self) -> float:
        """Fraction of *offered* queries answered within their deadline —
        the quantity an open-loop SLO study optimizes (late, shed, and
        rejected queries all count against it equally)."""
        return self.met_deadline / self.offered if self.offered else 0.0

    @property
    def degraded_count(self) -> int:
        return sum(1 for answer in self.answers if answer.degraded)

    @property
    def shed_count(self) -> int:
        return sum(
            1 for answer in self.answers if answer.action.startswith("shed")
        )

    @property
    def rejected_count(self) -> int:
        return sum(1 for answer in self.answers if answer.action == REJECT)

    def class_latency(self, qos: str) -> dict:
        """Exact per-class latency digest (simulated ms, completed only)."""
        summary = self.metrics.summary("slo.latency_ms", qos=qos)
        return summary.snapshot()

    def mean_measured_recall(self) -> float | None:
        """Mean empirical recall over degraded answers (None if none)."""
        measured = [
            answer.measured_recall
            for answer in self.answers
            if answer.degraded and answer.measured_recall is not None
        ]
        if not measured:
            return None
        return float(np.mean(measured))

    def min_advertised_recall(self) -> float | None:
        floors = [
            answer.expected_recall for answer in self.answers if answer.degraded
        ]
        return min(floors) if floors else None

    def to_dict(self) -> dict:
        classes = sorted({answer.qos for answer in self.answers})
        return {
            "scheduler": self.scheduler,
            "workload": dict(self.workload),
            "offered": self.offered,
            "met_deadline": self.met_deadline,
            "goodput": self.goodput,
            "degraded": self.degraded_count,
            "shed": self.shed_count,
            "rejected": self.rejected_count,
            "makespan_ms": self.makespan_ms,
            "mean_measured_recall": self.mean_measured_recall(),
            "min_advertised_recall": self.min_advertised_recall(),
            "classes": {qos: self.class_latency(qos) for qos in classes},
            "breaker": self.breaker,
        }


def _top_k_reference(window: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k value multiset of a window (order irrelevant)."""
    return np.partition(window, len(window) - k)[len(window) - k :]


def simulate(
    workload: OpenLoopWorkload,
    scheduler: SloScheduler | None = None,
    device: DeviceSpec | None = None,
    plan_cache: PlanCache | None = None,
    metrics: MetricsRegistry | None = None,
    injector=None,
    breaker: CircuitBreaker | None = None,
    max_pending: int = DEFAULT_MAX_PENDING,
    column: np.ndarray | None = None,
    trace: list[SloQuery] | None = None,
    profile: WorkloadProfile = UNIFORM_FLOAT,
) -> SimulationResult:
    """Run one scheduler over one open-loop trace, deterministically.

    ``column``/``trace`` may be passed pre-generated so several runs
    (policies, rates) share byte-identical queries; otherwise they are
    materialized from ``workload``.  ``plan_cache`` may likewise be
    shared across runs — planning is payload-independent, so reuse only
    changes wall time, never results.
    """
    device = device or get_device()
    metrics = metrics if metrics is not None else MetricsRegistry()
    scheduler = (
        scheduler
        if scheduler is not None
        else SloScheduler(DEFAULT_POLICY, device=device, metrics=metrics)
    )
    if column is None or trace is None:
        column, trace = workload.generate()
    batcher = CrossQueryBatcher(
        plan_cache=plan_cache,
        device=device,
        metrics=metrics,
        profile=profile,
    )

    answers: dict[int, ServedAnswer] = {}
    owners: dict[int, SloQuery] = {}
    queue: list[ServingRequest] = []
    now_ms = 0.0
    next_arrival = 0

    def resolve(query: SloQuery, **kwargs) -> ServedAnswer:
        policy = scheduler.policy
        answer = ServedAnswer(
            index=query.index,
            qos=query.qos,
            n=query.n,
            k=query.k,
            arrival_ms=query.arrival_ms,
            deadline_ms=query.arrival_ms
            + policy.class_named(query.qos).deadline_ms,
            **kwargs,
        )
        answers[query.index] = answer
        return answer

    def admit(query: SloQuery) -> None:
        if len(queue) >= max_pending:
            scheduler._record(
                Decision(REJECT, query.qos, query.n, query.k, "queue full")
            )
            metrics.counter("slo.rejected", qos=query.qos).inc()
            resolve(
                query,
                action=REJECT,
                ok=False,
                error=str(
                    ResourceExhaustedError(
                        f"serving queue is full ({max_pending} pending)"
                    )
                ),
            )
            return
        queued_in_class = sum(
            1 for request in queue if request.qos == query.qos
        )
        rejection = scheduler.admit(query.qos, queued_in_class)
        if rejection is not None:
            metrics.counter("slo.rejected", qos=query.qos).inc()
            resolve(
                query,
                action=REJECT,
                ok=False,
                error=str(scheduler.rejection_error(rejection)),
            )
            return
        request = ServingRequest(
            data=column[query.offset : query.offset + query.n],
            k=query.k,
            injector=injector,
            submitted_sim_ms=query.arrival_ms,
            deadline_ms=query.arrival_ms
            + scheduler.policy.class_named(query.qos).deadline_ms,
            qos=query.qos,
        )
        owners[id(request)] = query
        queue.append(request)

    def fail_shed(triples) -> None:
        for request, decision, error in triples:
            query = owners.pop(id(request))
            metrics.counter("slo.shed", qos=query.qos).inc()
            resolve(
                query,
                action=decision.action,
                ok=False,
                error=str(error),
            )

    while next_arrival < len(trace) or queue:
        if not queue:
            # Idle server: jump the clock to the next arrival.
            now_ms = max(now_ms, trace[next_arrival].arrival_ms)
        while (
            next_arrival < len(trace)
            and trace[next_arrival].arrival_ms <= now_ms
        ):
            admit(trace[next_arrival])
            next_arrival += 1
        if not queue:
            continue
        drained, queue = queue, []
        to_run, shed = scheduler.prepare(drained, now_ms)
        fail_shed(shed)
        if not to_run:
            continue
        # Execute only the earliest-deadline survivor; the rest return to
        # the pool so the next cycle re-evaluates them against the clock
        # their wait has actually cost them.
        request, rest = to_run[0], to_run[1:]
        queue.extend(rest)
        query = owners.pop(id(request))
        allowed = breaker.allow(now_ms) if breaker is not None else True
        if not allowed:
            _, breaker_shed = scheduler.breaker_shed([request])
            if breaker_shed:
                for _, decision, error in breaker_shed:
                    metrics.counter("slo.shed", qos=query.qos).inc()
                    resolve(
                        query,
                        action=decision.action,
                        ok=False,
                        error=str(error),
                    )
                continue
            # Non-sheddable queries run even against an open breaker (the
            # resilient fallback chain still produces an answer); their
            # outcome is not reported to the breaker, whose probe
            # accounting covers allowed executions only.
        if not request.degraded:
            scheduler.note_run(request)
        fallbacks_before = batcher.fallback_queries + batcher.batch_fallbacks
        start_ms = now_ms
        request.queue_wait_sim_ms = max(0.0, start_ms - query.arrival_ms)
        metrics.histogram("serving.queue_wait_sim_ms").observe(
            request.queue_wait_sim_ms
        )
        try:
            batcher.plan(request)
            outcome = batcher.execute([request])[0]
        except Exception as error:  # noqa: BLE001 — typed fault escapes
            now_ms += scheduler.ewma_service_ms  # failed attempt still burns time
            if breaker is not None and allowed:
                breaker.record_failure(now_ms, error)
            metrics.counter("slo.failed", qos=query.qos).inc()
            resolve(
                query,
                action=RUN,
                ok=False,
                start_ms=start_ms,
                finish_ms=now_ms,
                error=str(error),
            )
            continue
        now_ms += outcome.simulated_ms
        scheduler.observe_service(outcome.simulated_ms)
        faulted = (
            batcher.fallback_queries + batcher.batch_fallbacks
            > fallbacks_before
        )
        if breaker is not None and allowed:
            if faulted:
                breaker.record_failure(now_ms)
            else:
                breaker.record_success(now_ms)
        answer = resolve(
            query,
            action=DEGRADE if request.degraded else RUN,
            ok=False,  # set below once the deadline check is done
            start_ms=start_ms,
            finish_ms=now_ms,
            simulated_ms=outcome.simulated_ms,
            degraded=request.degraded,
            expected_recall=request.expected_recall,
            values=outcome.values,
            indices=outcome.indices,
        )
        answer.ok = now_ms <= answer.deadline_ms
        if request.degraded:
            answer.measured_recall = measured_recall(
                outcome.values,
                _top_k_reference(
                    column[query.offset : query.offset + query.n], query.k
                ),
            )
            metrics.counter("slo.degraded", qos=query.qos).inc()
        metrics.counter(
            "slo.met" if answer.ok else "slo.missed", qos=query.qos
        ).inc()
        metrics.summary("slo.latency_ms", qos=query.qos).observe(
            answer.latency_ms
        )

    ordered = [answers[index] for index in sorted(answers)]
    result = SimulationResult(
        scheduler=scheduler.name,
        workload=workload.to_dict(),
        answers=ordered,
        decisions=list(scheduler.decisions),
        metrics=metrics,
        makespan_ms=now_ms,
        breaker=breaker.stats() if breaker is not None else None,
    )
    metrics.gauge("slo.goodput", scheduler=scheduler.name).set(result.goodput)
    return result
