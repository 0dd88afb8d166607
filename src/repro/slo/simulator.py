"""Deterministic open-loop serving simulation in simulated time.

The thread-based :class:`~repro.serving.TopKServer` is the production
front door, but threads make overload experiments unrepeatable: OS
scheduling decides what is in each drained batch.  The simulator drives
the same serving pipeline — plan cache, cross-query batcher, and the
SLO serving cycle of :mod:`repro.slo.scheduler` (admission, dispatch
with the circuit breaker, settlement) — as a **discrete-event loop over
simulated milliseconds**: queries arrive at their trace timestamps, the
clock advances only by executed kernels' simulated cost, and every
admission/degradation/shedding choice lands in a decision log.  Same
seed, same trace ⇒ bit-identical answers, decisions, and latency
digests; that is the property the overload test suite and the
``slo-bench`` entry of CI's ``smoke`` matrix pin down.

The cycle runs once per executed request (``limit=1``): it re-judges
the whole queue against the current clock, then exactly one query — the
earliest-deadline survivor — executes and the clock advances by its
simulated cost, so the ladder reacts *during* a burst.  The threaded
server runs the same cycle once per drained backlog.  This module keeps
only the trace replay and the per-query answer bookkeeping.
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
from repro.slo.scheduler import DEGRADE, REJECT, RUN, Decision, SloScheduler

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

    def fail(query: SloQuery, action: str, error, counter: str) -> None:
        metrics.counter(counter, qos=query.qos).inc()
        resolve(query, action=action, ok=False, error=str(error))

    def admit(query: SloQuery) -> None:
        request = ServingRequest(
            data=column[query.offset : query.offset + query.n],
            k=query.k,
            injector=injector,
            submitted_sim_ms=query.arrival_ms,
            deadline_ms=query.arrival_ms
            + scheduler.policy.class_named(query.qos).deadline_ms,
            qos=query.qos,
        )
        try:
            scheduler.admit_request(request, queue, max_pending)
        except ResourceExhaustedError as error:
            fail(query, REJECT, error, "slo.rejected")
            return
        owners[id(request)] = query
        queue.append(request)

    while next_arrival < len(trace) or queue:
        if not queue:
            # Idle server: jump the clock to the next arrival.
            now_ms = max(now_ms, trace[next_arrival].arrival_ms)
        while next_arrival < len(trace) and trace[next_arrival].arrival_ms <= now_ms:
            admit(trace[next_arrival])
            next_arrival += 1
        if not queue:
            continue
        # Execute only the earliest-deadline survivor; the rest return to
        # the queue so the next cycle re-evaluates them against the clock
        # their wait has actually cost them.
        cycle = scheduler.dispatch(queue, now_ms, breaker, limit=1)
        queue = cycle.rest
        for request, decision, error in cycle.shed:
            fail(owners.pop(id(request)), decision.action, error, "slo.shed")
        if not cycle.run:
            continue
        [request] = cycle.run
        query = owners.pop(id(request))
        start_ms = now_ms
        request.queue_wait_sim_ms = max(0.0, start_ms - query.arrival_ms)
        metrics.histogram("serving.queue_wait_sim_ms").observe(
            request.queue_wait_sim_ms
        )
        [(_, result)] = batcher.serve([request])
        if isinstance(result, Exception):
            now_ms += scheduler.ewma_service_ms  # failed attempt still burns time
            cycle.record(now_ms, result)
            metrics.counter("slo.failed", qos=query.qos).inc()
            resolve(
                query,
                action=RUN,
                ok=False,
                start_ms=start_ms,
                finish_ms=now_ms,
                error=str(result),
            )
            continue
        [outcome] = result
        now_ms += outcome.simulated_ms
        [met] = cycle.settle([request], result, now_ms)
        cycle.record(now_ms)
        answer = resolve(
            query,
            action=DEGRADE if request.degraded else RUN,
            ok=met,
            start_ms=start_ms,
            finish_ms=now_ms,
            simulated_ms=outcome.simulated_ms,
            degraded=request.degraded,
            expected_recall=request.expected_recall,
            values=outcome.values,
            indices=outcome.indices,
        )
        if request.degraded:
            answer.measured_recall = measured_recall(
                outcome.values,
                _top_k_reference(
                    column[query.offset : query.offset + query.n], query.k
                ),
            )
            metrics.counter("slo.degraded", qos=query.qos).inc()
        metrics.counter("slo.met" if answer.ok else "slo.missed", qos=query.qos).inc()
        metrics.summary("slo.latency_ms", qos=query.qos).observe(answer.latency_ms)

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
