"""Deadline-aware scheduling decisions: EDF, shedding, degradation.

This module is the *decision core* of the SLO layer, deliberately split
from execution: :class:`SloScheduler` looks at a backlog and a simulated
clock and says, per query, which rung of the degradation ladder applies
— run exact, run degraded, or shed — recording every choice as a
:class:`Decision`.

It is also the one serving cycle both doors call: admission
(:meth:`SloScheduler.admit_request`), dispatch over (backlog, clock)
(:meth:`SloScheduler.dispatch`) and settlement (:class:`Dispatch`).  The
:mod:`~repro.slo.simulator` calls it once per executed request on its
virtual clock (``limit=1``); :class:`~repro.slo.server.SloTopKServer`
once per drained backlog (``limit=None``).

The policy implemented:

1. **Order** the backlog earliest-deadline-first (ties broken by class
   priority, then arrival order — Python's stable sort keeps FIFO among
   equals).
2. **Shed** sheddable queries that are already past their deadline — a
   late best-effort answer has zero goodput value but still costs
   service time the queries behind it need.
3. **Degrade** degradable queries whose projected finish (the EDF
   position times an EWMA service-time estimate) would overrun their
   deadline, by lowering their recall target to the policy's degraded
   level — *when* the recall model finds a genuinely approximate
   configuration for the shape (otherwise degrading is a no-op and the
   query stays exact).
4. **Break**: with the device circuit breaker open, the sheddable
   queries about to run fail fast; the others run unreported.

:class:`FifoScheduler` is the control arm: same interface, no reordering
and no ladder, so benches can attribute goodput differences to the
policy rather than to incidental code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.approx_model import choose_config
from repro.costmodel.base import UNIFORM_FLOAT, WorkloadProfile
from repro.errors import DeadlineExceededError, ResourceExhaustedError
from repro.gpu.device import DeviceSpec, get_device
from repro.observability.metrics import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.serving.scheduler import check_capacity
from repro.slo.qos import DEFAULT_POLICY, SloPolicy

#: Decision actions (the ladder, plus admission).
RUN = "run"
DEGRADE = "degrade"
SHED_DEADLINE = "shed-deadline"
SHED_BREAKER = "shed-breaker"
REJECT = "reject"


@dataclass(frozen=True)
class Decision:
    """One scheduling choice, identified by the query's shape.

    Window lengths are unique per query in the SLO workload, so ``n``
    doubles as a stable query identifier when diffing decision logs
    across runs.
    """

    action: str
    qos: str
    n: int
    k: int
    reason: str = ""


@dataclass
class Dispatch:
    """One dispatch cycle's verdict (see :meth:`SloScheduler.dispatch`)."""

    scheduler: SloScheduler
    #: Survivors to execute now; those past the cycle's limit, in EDF
    #: order; and ``(request, decision, error)`` triples to fail.
    run: list
    rest: list
    shed: list
    #: The breaker that allowed this cycle and is owed one :meth:`record`.
    breaker: CircuitBreaker | None = None
    faulted: bool = False

    def settle(self, group: list, outcomes: list, now_ms: float) -> list[bool]:
        """Fold an executed group's per-query shares into the service
        estimate; per request, did it meet its deadline at ``now_ms``?"""
        for outcome in outcomes:
            self.scheduler.observe_service(outcome.simulated_share_ms)
            self.faulted = self.faulted or outcome.fell_back
        return [now_ms <= request.deadline_ms for request in group]

    def record(self, now_ms: float, error: BaseException | None = None) -> None:
        """Report the cycle to the breaker that allowed it, once: a failure
        if execution raised ``error`` or fell back, else a success."""
        breaker, self.breaker = self.breaker, None
        if breaker is None:
            return
        if error is not None or self.faulted:
            breaker.record_failure(now_ms, error)
        else:
            breaker.record_success(now_ms)


class SloScheduler:
    """EDF admission + the degradation ladder over one drained backlog."""

    #: Interface tag benches put in reports.
    name = "slo"

    def __init__(
        self,
        policy: SloPolicy = DEFAULT_POLICY,
        device: DeviceSpec | None = None,
        profile: WorkloadProfile = UNIFORM_FLOAT,
        metrics: MetricsRegistry | None = None,
    ):
        self.policy = policy
        self.device = device or get_device()
        self.profile = profile
        self.metrics = metrics
        #: EWMA estimate of simulated ms per served query — the quantity
        #: EDF projects queue positions into finish times with.
        self.ewma_service_ms = policy.initial_service_ms
        #: Every decision ever made, in order (the determinism artifact).
        self.decisions: list[Decision] = []

    # -- admission (submit-time) ------------------------------------------

    def admit(self, qos_name: str, queued_in_class: int) -> Decision | None:
        """Per-class queue-budget check at submit time.

        Returns a REJECT decision when the class is over budget (the
        caller raises the typed error), None when admitted — admitted
        queries get their RUN/DEGRADE/SHED decision at dispatch.
        """
        qos = self.policy.class_named(qos_name)
        if queued_in_class < qos.queue_budget:
            return None
        reason = f"class queue budget {qos.queue_budget} exhausted"
        return self._record(Decision(REJECT, qos.name, n=0, k=0, reason=reason))

    def rejection_error(self, decision: Decision) -> ResourceExhaustedError:
        return ResourceExhaustedError(
            f"{decision.qos} admission rejected: {decision.reason}"
        )

    def admit_request(
        self, request, queue, max_pending: int, in_flight: int = 0
    ) -> None:
        """The one admission step of both doors, run under their queue.

        ``request`` may join ``queue`` (``in_flight`` more are executing)
        within the global ``max_pending`` bound and its class's budget
        (:meth:`admit`).  A refusal is logged as a REJECT decision and
        raised as a typed :class:`~repro.errors.ResourceExhaustedError`.
        """
        try:
            check_capacity(len(queue) + in_flight, max_pending)
        except ResourceExhaustedError:
            self._decision(REJECT, request, reason="queue full")
            raise
        queued_in_class = sum(1 for queued in queue if queued.qos == request.qos)
        rejection = self.admit(request.qos, queued_in_class)
        if rejection is not None:
            raise self.rejection_error(rejection)

    # -- dispatch-time ladder ---------------------------------------------

    def dispatch(
        self,
        backlog: list,
        now_ms: float,
        breaker: CircuitBreaker | None = None,
        limit: int | None = None,
    ) -> Dispatch:
        """One SLO dispatch cycle over ``backlog`` at simulated ``now_ms``.

        :meth:`prepare` orders the backlog and sheds overdue work; the
        first ``limit`` survivors are taken (all of them when ``limit`` is
        None) and the rest come back in :attr:`Dispatch.rest`.  Only if
        something will run is ``breaker`` asked, once: refused, the taken
        sheddable requests are shed too (:meth:`breaker_shed`).  The kept
        requests the ladder left exact are logged RUN.
        """
        to_run, shed = self.prepare(backlog, now_ms)
        rest = [] if limit is None else to_run[limit:]
        cycle = Dispatch(self, to_run[:limit], rest, shed)
        if cycle.run and breaker is not None:
            if breaker.allow(now_ms):
                cycle.breaker = breaker
            else:
                cycle.run, refused = self.breaker_shed(cycle.run)
                shed.extend(refused)
        for request in cycle.run:
            if not request.degraded:
                self.note_run(request)
        return cycle

    def prepare(self, backlog: list, now_ms: float) -> tuple[list, list]:
        """Order one drained backlog and apply the ladder.

        ``backlog`` holds :class:`~repro.serving.batcher.ServingRequest`
        objects with ``deadline_ms``/``qos`` set.  Returns
        ``(to_run, shed)``: the EDF-ordered requests to execute (some
        possibly mutated to a degraded recall target) and a list of
        ``(request, decision, error)`` triples the caller must fail.
        """
        ordered = sorted(
            backlog,
            key=lambda request: (
                request.deadline_ms
                if request.deadline_ms is not None
                else float("inf"),
                self.policy.class_named(request.qos).priority,
            ),
        )
        to_run: list = []
        shed: list = []
        projected_ms = now_ms
        for request in ordered:
            qos = self.policy.class_named(request.qos)
            deadline = request.deadline_ms
            if qos.sheddable and deadline is not None and now_ms > deadline:
                decision = self._decision(
                    SHED_DEADLINE,
                    request,
                    reason=f"overdue by {now_ms - deadline:.3f} ms at dispatch",
                )
                shed.append(
                    (
                        request,
                        decision,
                        DeadlineExceededError(
                            f"{qos.name} query missed its deadline "
                            f"({deadline:.3f} ms) before dispatch "
                            f"at {now_ms:.3f} ms; shedding"
                        ),
                    )
                )
                continue
            if (
                qos.degradable
                and deadline is not None
                and request.recall_target >= 1.0
                and projected_ms + self.ewma_service_ms > deadline
            ):
                choice = choose_config(
                    len(request.data),
                    request.k,
                    self.policy.degraded_recall,
                    request.data.dtype,
                    self.device,
                    self.profile,
                )
                if choice is not None:
                    _, _, expected_recall = choice
                    request.recall_target = self.policy.degraded_recall
                    request.degraded = True
                    request.expected_recall = expected_recall
                    self._decision(
                        DEGRADE,
                        request,
                        reason=(
                            f"projected finish past deadline; serving at "
                            f"expected recall {expected_recall:.4f}"
                        ),
                    )
            to_run.append(request)
            projected_ms += self.ewma_service_ms
        return to_run, shed

    def note_run(self, request) -> None:
        """Log the exact-path execution of a request.

        :meth:`dispatch` invokes this once, when the request is taken to
        run, for requests the ladder never touched — :meth:`prepare` may
        see the same queued request many times across dispatch cycles,
        so it only logs ladder *events* (degrade/shed), keeping the
        decision log at one entry per query.
        """
        self._decision(RUN, request)

    def breaker_shed(self, backlog: list) -> tuple[list, list]:
        """Rung 3 support: with the device breaker open, fail sheddable
        queries fast instead of queueing them behind a dead device.

        Returns ``(keep, shed)`` with the same triple shape as
        :meth:`prepare`'s shed list.
        """
        keep: list = []
        shed: list = []
        for request in backlog:
            qos = self.policy.class_named(request.qos)
            if qos.sheddable:
                decision = self._decision(
                    SHED_BREAKER, request, reason="device circuit breaker open"
                )
                shed.append(
                    (
                        request,
                        decision,
                        ResourceExhaustedError(
                            f"{qos.name} query shed: device circuit breaker is open"
                        ),
                    )
                )
            else:
                keep.append(request)
        return keep, shed

    # -- feedback ----------------------------------------------------------

    def observe_service(self, simulated_ms: float) -> None:
        """Fold one served query's simulated cost into the EWMA."""
        alpha = self.policy.ewma_alpha
        self.ewma_service_ms = (
            alpha * float(simulated_ms) + (1.0 - alpha) * self.ewma_service_ms
        )

    # -- bookkeeping -------------------------------------------------------

    def _decision(self, action: str, request, reason: str = "") -> Decision:
        decision = Decision(
            action,
            request.qos,
            n=len(request.data),
            k=request.k,
            reason=reason,
        )
        self._record(decision)
        return decision

    def _record(self, decision: Decision) -> Decision:
        self.decisions.append(decision)
        if self.metrics is not None:
            self.metrics.counter(
                "slo.decisions", action=decision.action, qos=decision.qos
            ).inc()
        return decision


class FifoScheduler(SloScheduler):
    """The control arm: arrival order, no shedding, no degradation.

    Per-class budgets are also disabled — FIFO models the pre-SLO server,
    whose only defense is the global ``max_pending`` bound.
    """

    name = "fifo"

    def admit(self, qos_name: str, queued_in_class: int) -> Decision | None:
        self.policy.class_named(qos_name)  # still validate the tag
        return None

    def prepare(self, backlog: list, now_ms: float) -> tuple[list, list]:
        return list(backlog), []
