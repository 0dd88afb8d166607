"""Deterministic overload simulation: decisions, digests, the ladder."""

import numpy as np
import pytest

from repro.gpu.faults import FaultInjector, FaultPlan
from repro.observability.metrics import MetricsRegistry
from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.serving.plan_cache import PlanCache
from repro.slo import (
    FifoScheduler,
    OpenLoopWorkload,
    SloScheduler,
    simulate,
)

#: Offered rates bracketing the exact path's ~20 q/ms capacity on the
#: titan-x-maxwell profile: one comfortably below, one well past it.
CALM_RATE = 8.0
OVERLOAD_RATE = 60.0


@pytest.fixture(scope="module")
def plan_cache():
    # Planning is payload-independent; one cache across the module keeps
    # these tests fast without changing any simulated result.
    from repro.gpu.device import get_device

    return PlanCache(device=get_device("titan-x-maxwell"), capacity=1024)


def run(rate, scheduler_cls=SloScheduler, device=None, queries=80, **kwargs):
    workload = OpenLoopWorkload(queries=queries, rate_per_ms=rate, seed=0)
    return simulate(
        workload,
        scheduler_cls(device=device),
        device=device,
        metrics=MetricsRegistry(),
        **kwargs,
    )


class TestDeterminism:
    def test_same_seed_same_decisions_and_digests(self, device, plan_cache):
        first = run(OVERLOAD_RATE, device=device, plan_cache=plan_cache)
        second = run(OVERLOAD_RATE, device=device, plan_cache=plan_cache)
        assert first.decisions == second.decisions
        assert len(first.answers) == len(second.answers)
        for a, b in zip(first.answers, second.answers):
            assert (a.action, a.ok, a.start_ms, a.finish_ms) == (
                b.action,
                b.ok,
                b.start_ms,
                b.finish_ms,
            )
        for qos in ("gold", "standard", "best-effort"):
            assert first.class_latency(qos) == second.class_latency(qos)

    def test_every_offered_query_is_accounted_for(self, device, plan_cache):
        result = run(OVERLOAD_RATE, device=device, plan_cache=plan_cache)
        assert result.offered == 80
        assert {answer.index for answer in result.answers} == set(range(80))


class TestBelowSaturation:
    def test_slo_arm_is_bit_equal_to_fifo(self, device, plan_cache):
        fifo = run(CALM_RATE, FifoScheduler, device=device, plan_cache=plan_cache)
        slo = run(CALM_RATE, device=device, plan_cache=plan_cache)
        assert slo.degraded_count == 0
        assert slo.shed_count == 0
        assert slo.rejected_count == 0
        for a, b in zip(fifo.answers, slo.answers):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.indices, b.indices)


class TestOverload:
    def test_ladder_engages_and_beats_fifo(self, device, plan_cache):
        fifo = run(OVERLOAD_RATE, FifoScheduler, device=device, plan_cache=plan_cache)
        slo = run(OVERLOAD_RATE, device=device, plan_cache=plan_cache)
        assert fifo.goodput < 0.9, "sweep rate no longer saturates FIFO"
        assert slo.goodput > fifo.goodput
        assert slo.degraded_count + slo.shed_count > 0

    def test_degraded_answers_meet_their_advertised_recall(self, device, plan_cache):
        slo = run(OVERLOAD_RATE, device=device, plan_cache=plan_cache)
        degraded = [answer for answer in slo.answers if answer.degraded]
        assert degraded, "overload no longer triggers degradation"
        for answer in degraded:
            assert answer.measured_recall is not None
            assert answer.expected_recall >= slo.min_advertised_recall()
            assert answer.measured_recall >= answer.expected_recall - 0.05

    def test_queue_pressure_rejects_past_max_pending(self, device, plan_cache):
        result = run(
            OVERLOAD_RATE,
            device=device,
            plan_cache=plan_cache,
            max_pending=4,
        )
        assert result.rejected_count > 0
        rejected = [a for a in result.answers if a.action == "reject"]
        assert all(not a.ok and a.error for a in rejected)


class TestBreakerIntegration:
    def test_persistent_faults_trip_the_breaker(self, device, plan_cache):
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="kernel-launch",
                    fault="device-lost",
                    probability=1.0,
                    max_injections=1000,
                )
            ],
        )
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        result = run(
            CALM_RATE,
            device=device,
            plan_cache=plan_cache,
            injector=injector,
            breaker=breaker,
            queries=30,
        )
        assert result.breaker["times_opened"] >= 1
        # Every query still resolves: shed fast, or served through the
        # resilient fallback chain.
        assert len(result.answers) == 30

    def test_result_serializes_breaker_state(self, device, plan_cache):
        breaker = CircuitBreaker()
        result = run(
            CALM_RATE,
            device=device,
            plan_cache=plan_cache,
            breaker=breaker,
            queries=10,
        )
        assert result.to_dict()["breaker"]["state"] == "closed"


class TestResultAccounting:
    def test_to_dict_is_json_ready(self, device, plan_cache):
        import json

        result = run(CALM_RATE, device=device, plan_cache=plan_cache)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["scheduler"] == "slo"
        assert payload["offered"] == 80
        assert 0.0 <= payload["goodput"] <= 1.0
        assert set(payload["classes"]) <= {"gold", "standard", "best-effort"}

    def test_goodput_counts_met_deadlines_only(self, device, plan_cache):
        result = run(CALM_RATE, device=device, plan_cache=plan_cache)
        met = sum(1 for answer in result.answers if answer.ok)
        assert result.goodput == met / result.offered
