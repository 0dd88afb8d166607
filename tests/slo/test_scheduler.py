"""The SLO decision core: EDF order, the ladder, admission, the control arm."""

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    DeviceLostError,
    ResourceExhaustedError,
)
from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.serving.batcher import ServingRequest
from repro.slo import (
    DEGRADE,
    REJECT,
    RUN,
    SHED_BREAKER,
    SHED_DEADLINE,
    FifoScheduler,
    SloScheduler,
)


def request(n=50_000, k=64, qos="standard", deadline_ms=None, seed=0):
    data = np.random.default_rng(seed).integers(0, 1 << 20, size=n, dtype=np.int32)
    return ServingRequest(data=data, k=k, qos=qos, deadline_ms=deadline_ms)


@pytest.fixture
def scheduler(device):
    return SloScheduler(device=device)


class TestEdfOrder:
    def test_earliest_deadline_runs_first(self, scheduler):
        late = request(qos="best-effort", deadline_ms=9.0)
        soon = request(qos="gold", deadline_ms=2.0)
        middle = request(qos="standard", deadline_ms=5.0)
        to_run, shed = scheduler.prepare([late, soon, middle], now_ms=0.0)
        assert [r.deadline_ms for r in to_run] == [2.0, 5.0, 9.0]
        assert shed == []

    def test_priority_breaks_deadline_ties(self, scheduler):
        best = request(qos="best-effort", deadline_ms=4.0)
        gold = request(qos="gold", deadline_ms=4.0)
        to_run, _ = scheduler.prepare([best, gold], now_ms=0.0)
        assert to_run[0] is gold


class TestShedding:
    def test_overdue_sheddable_queries_are_shed(self, scheduler):
        overdue = request(qos="best-effort", deadline_ms=1.0)
        fresh = request(qos="best-effort", deadline_ms=9.0)
        to_run, shed = scheduler.prepare([overdue, fresh], now_ms=2.0)
        assert to_run == [fresh]
        [(victim, decision, error)] = shed
        assert victim is overdue
        assert decision.action == SHED_DEADLINE
        assert isinstance(error, DeadlineExceededError)

    def test_overdue_non_sheddable_queries_still_run(self, scheduler):
        # Gold never consented to shedding: a late gold answer beats none.
        overdue = request(qos="gold", deadline_ms=1.0)
        to_run, shed = scheduler.prepare([overdue], now_ms=5.0)
        assert to_run == [overdue] and shed == []

    def test_breaker_shed_splits_by_consent(self, scheduler):
        sheddable = request(qos="best-effort", deadline_ms=5.0)
        protected = request(qos="gold", deadline_ms=5.0)
        keep, shed = scheduler.breaker_shed([sheddable, protected])
        assert keep == [protected]
        [(victim, decision, error)] = shed
        assert victim is sheddable
        assert decision.action == SHED_BREAKER
        assert isinstance(error, ResourceExhaustedError)


class TestDegradation:
    def test_projected_overrun_degrades_a_degradable_query(self, scheduler):
        # Deadline tighter than one EWMA service time: EDF projects a
        # miss, and the recall model finds a cheaper approximate config.
        victim = request(qos="standard", deadline_ms=0.01)
        to_run, _ = scheduler.prepare([victim], now_ms=0.0)
        assert to_run == [victim]
        assert victim.degraded
        assert victim.recall_target == scheduler.policy.degraded_recall
        assert 0.0 < victim.expected_recall <= 1.0
        assert [d.action for d in scheduler.decisions] == [DEGRADE]

    def test_gold_is_never_degraded(self, scheduler):
        victim = request(qos="gold", deadline_ms=0.01)
        scheduler.prepare([victim], now_ms=0.0)
        assert not victim.degraded
        assert victim.recall_target == 1.0

    def test_comfortable_deadlines_stay_exact(self, scheduler):
        victim = request(qos="standard", deadline_ms=100.0)
        scheduler.prepare([victim], now_ms=0.0)
        assert not victim.degraded

    def test_explicitly_approximate_queries_are_left_alone(self, scheduler):
        victim = request(qos="standard", deadline_ms=0.01)
        victim.recall_target = 0.95  # the tenant already chose a target
        scheduler.prepare([victim], now_ms=0.0)
        assert not victim.degraded
        assert victim.recall_target == 0.95


class TestAdmission:
    def test_global_bound_comes_before_the_class_budget(self, scheduler):
        queued = [request(qos="gold"), request(qos="gold")]
        with pytest.raises(ResourceExhaustedError, match="queue is full"):
            scheduler.admit_request(
                request(n=77, k=3), queued, max_pending=3, in_flight=1
            )
        [decision] = scheduler.decisions
        assert (decision.action, decision.n, decision.k) == (REJECT, 77, 3)
        scheduler.admit_request(request(), queued, max_pending=3)

    def test_admission_enforces_the_class_budget(self, device):
        from repro.slo import DEFAULT_CLASSES, SloPolicy

        tiny = SloPolicy(
            classes=tuple(
                type(qos)(
                    qos.name,
                    qos.priority,
                    qos.deadline_ms,
                    1,
                    qos.degradable,
                    qos.sheddable,
                )
                for qos in DEFAULT_CLASSES
            )
        )
        scheduler = SloScheduler(tiny, device=device)
        queued = [request(qos="gold")]
        with pytest.raises(ResourceExhaustedError, match="admission rejected"):
            scheduler.admit_request(request(qos="gold"), queued, 100)
        scheduler.admit_request(request(qos="standard"), queued, 100)
        assert [d.action for d in scheduler.decisions] == [REJECT]

    def test_over_budget_class_is_rejected(self, scheduler):
        budget = scheduler.policy.class_named("best-effort").queue_budget
        assert scheduler.admit("best-effort", budget - 1) is None
        decision = scheduler.admit("best-effort", budget)
        assert decision is not None and decision.action == REJECT
        error = scheduler.rejection_error(decision)
        assert isinstance(error, ResourceExhaustedError)


class CountingBreaker(CircuitBreaker):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.asked = 0

    def allow(self, now_ms):
        self.asked += 1
        return super().allow(now_ms)


def opened(now_ms=0.0):
    breaker = CountingBreaker(policy=BreakerPolicy(cooldown_ms=1.0))
    for _ in range(breaker.policy.failure_threshold):
        breaker.record_failure(now_ms, DeviceLostError("down"))
    return breaker


class FakeOutcome:
    def __init__(self, ms, fell_back=False):
        self.simulated_share_ms = ms
        self.fell_back = fell_back


class TestDispatch:
    def test_limit_takes_the_first_survivor_and_returns_the_rest(self, scheduler):
        late = request(qos="gold", deadline_ms=9.0, n=64, k=4)
        soon = request(qos="gold", deadline_ms=2.0, n=65, k=4)
        middle = request(qos="gold", deadline_ms=5.0, n=66, k=4)
        cycle = scheduler.dispatch([late, soon, middle], 0.0, limit=1)
        assert cycle.run == [soon]
        assert cycle.rest == [middle, late]
        assert [(d.action, d.n) for d in scheduler.decisions] == [(RUN, 65)]

    def test_no_limit_runs_every_survivor(self, scheduler):
        backlog = [request(qos="gold", deadline_ms=9.0, n=64, k=4)] * 3
        cycle = scheduler.dispatch(backlog, 0.0)
        assert len(cycle.run) == 3 and cycle.rest == []

    def test_breaker_is_asked_only_when_something_runs(self, scheduler):
        breaker = CountingBreaker()
        overdue = request(qos="best-effort", deadline_ms=1.0)
        cycle = scheduler.dispatch([overdue], 2.0, breaker)
        assert cycle.run == [] and len(cycle.shed) == 1
        assert breaker.asked == 0
        scheduler.dispatch([request(qos="gold", deadline_ms=9.0)], 2.0, breaker)
        assert breaker.asked == 1

    def test_open_breaker_sheds_only_the_taken_sheddable(self, scheduler):
        breaker = opened()
        first = request(qos="best-effort", deadline_ms=2.0, n=64, k=4)
        second = request(qos="best-effort", deadline_ms=3.0, n=65, k=4)
        cycle = scheduler.dispatch([second, first], 0.5, breaker, limit=1)
        assert cycle.run == [] and cycle.rest == [second]
        [(victim, decision, error)] = cycle.shed
        assert victim is first and decision.action == SHED_BREAKER
        assert isinstance(error, ResourceExhaustedError)
        assert breaker.asked == 1
        # Refused: the cycle owes the breaker no outcome.
        assert cycle.breaker is None

    def test_an_allowed_probe_is_recorded_exactly_once(self, scheduler):
        breaker = opened()
        cycle = scheduler.dispatch([request(qos="gold", deadline_ms=9.0)], 1.0, breaker)
        assert breaker.state == "half-open" and cycle.breaker is breaker
        cycle.record(1.5)
        cycle.record(1.6)
        assert breaker.state == "closed" and breaker.times_closed == 1

    def test_settle_folds_shares_and_judges_deadlines(self, scheduler):
        early = request(qos="gold", deadline_ms=1.0)
        late = request(qos="gold", deadline_ms=0.5)
        breaker = CountingBreaker(policy=BreakerPolicy(failure_threshold=1))
        cycle = scheduler.dispatch([early, late], 0.0, breaker)
        before = scheduler.ewma_service_ms
        verdicts = cycle.settle(
            [early, late], [FakeOutcome(0.2), FakeOutcome(0.2, True)], 0.7
        )
        assert verdicts == [True, False]
        assert scheduler.ewma_service_ms > before
        # A fallen-back outcome makes the cycle's one record a failure.
        cycle.record(0.7)
        assert breaker.state == "open"


class TestBookkeeping:
    def test_note_run_logs_exactly_once(self, scheduler):
        req = request(deadline_ms=50.0)
        # prepare() may see the same queued request across many cycles and
        # must not log RUN; the single RUN entry comes at execution time.
        scheduler.prepare([req], now_ms=0.0)
        scheduler.prepare([req], now_ms=0.1)
        assert scheduler.decisions == []
        scheduler.note_run(req)
        assert [d.action for d in scheduler.decisions] == [RUN]

    def test_ewma_tracks_observed_service_times(self, scheduler):
        initial = scheduler.ewma_service_ms
        scheduler.observe_service(10 * initial)
        assert initial < scheduler.ewma_service_ms < 10 * initial


class TestFifoControlArm:
    def test_fifo_never_reorders_never_sheds_never_degrades(self, device):
        fifo = FifoScheduler(device=device)
        late = request(qos="best-effort", deadline_ms=0.001)
        soon = request(qos="gold", deadline_ms=2.0)
        to_run, shed = fifo.prepare([late, soon], now_ms=5.0)
        assert to_run == [late, soon] and shed == []
        assert not late.degraded
        assert fifo.decisions == []

    def test_fifo_ignores_class_budgets_but_validates_names(self, device):
        from repro.errors import InvalidParameterError

        fifo = FifoScheduler(device=device)
        assert fifo.admit("best-effort", 10_000) is None
        with pytest.raises(InvalidParameterError):
            fifo.admit("platinum", 0)
