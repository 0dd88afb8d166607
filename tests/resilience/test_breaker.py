"""Circuit breaker: state transitions, cooldown, probes, fault taxonomy."""

import pytest

from repro.errors import DeviceLostError, InvalidParameterError
from repro.observability.metrics import MetricsRegistry
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
)


def tripped(policy=None, now_ms=0.0):
    """A breaker driven to OPEN by consecutive device faults."""
    breaker = CircuitBreaker(policy or BreakerPolicy())
    for _ in range(breaker.policy.failure_threshold):
        assert breaker.allow(now_ms)
        breaker.record_failure(now_ms, DeviceLostError("boom"))
    return breaker


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == CLOSED
        assert breaker.allow(0.0)

    def test_trips_open_at_failure_threshold(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        breaker.record_failure(0.0, DeviceLostError("1"))
        breaker.record_failure(0.0, DeviceLostError("2"))
        assert breaker.state == CLOSED
        breaker.record_failure(0.0, DeviceLostError("3"))
        assert breaker.state == OPEN
        assert not breaker.allow(0.5)
        assert breaker.times_opened == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
        breaker.record_failure(0.0, DeviceLostError("1"))
        breaker.record_success(0.0)
        breaker.record_failure(0.0, DeviceLostError("2"))
        assert breaker.state == CLOSED

    def test_cooldown_transitions_to_half_open(self):
        breaker = tripped(BreakerPolicy(cooldown_ms=1.0))
        assert not breaker.allow(0.9)
        assert breaker.state == OPEN
        assert breaker.allow(1.0)  # cooldown elapsed: a probe goes through
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_budget_is_enforced(self):
        breaker = tripped(BreakerPolicy(cooldown_ms=1.0, half_open_probes=1))
        assert breaker.allow(2.0)
        # The single probe is in flight; nothing else gets through until
        # its outcome is recorded.
        assert not breaker.allow(2.0)
        assert breaker.probes == 1

    def test_probe_success_closes(self):
        breaker = tripped(BreakerPolicy(cooldown_ms=1.0))
        assert breaker.allow(2.0)
        breaker.record_success(2.1)
        assert breaker.state == CLOSED
        assert breaker.times_closed == 1
        assert breaker.allow(2.2)

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker = tripped(BreakerPolicy(cooldown_ms=1.0))
        assert breaker.allow(2.0)
        breaker.record_failure(2.1, DeviceLostError("still down"))
        assert breaker.state == OPEN
        assert breaker.times_opened == 2
        assert not breaker.allow(2.5)
        assert breaker.allow(3.2)  # new cooldown measured from the re-open


class TestFaultTaxonomy:
    def test_non_retryable_errors_never_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        breaker.record_failure(0.0, InvalidParameterError("caller bug"))
        assert breaker.state == CLOSED

    def test_uncounted_probe_failure_frees_the_probe(self):
        # A probe that failed on a caller bug proved nothing about the
        # device: the breaker stays half-open and admits the next probe.
        breaker = tripped(BreakerPolicy(cooldown_ms=1.0, half_open_probes=1))
        assert breaker.allow(2.0)
        breaker.record_failure(2.1, InvalidParameterError("caller bug"))
        assert breaker.state == HALF_OPEN
        assert breaker.allow(2.2)

    def test_unclassified_failures_count(self):
        # error=None means the caller observed a device fault directly
        # (e.g. the batcher's fallback counters moved).
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        breaker.record_failure(0.0)
        assert breaker.state == OPEN


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown_ms": 0.0},
            {"cooldown_ms": -1.0},
            {"half_open_probes": 0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            BreakerPolicy(**kwargs)


class TestObservability:
    def test_stats_reflect_the_lifecycle(self):
        breaker = tripped()
        assert breaker.allow(2.0)
        breaker.record_success(2.0)
        stats = breaker.stats()
        assert stats["state"] == CLOSED
        assert stats["times_opened"] == 1
        assert stats["times_closed"] == 1
        assert stats["probes"] == 1

    def test_metrics_published_on_transitions(self):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1), name="gpu0", metrics=metrics
        )
        breaker.record_failure(0.0)
        assert (
            metrics.value("resilience.breaker.opened", breaker="gpu0") == 1
        )
        assert metrics.value("resilience.breaker.state", breaker="gpu0") == 1
        assert breaker.allow(5.0)
        breaker.record_success(5.0)
        assert (
            metrics.value("resilience.breaker.closed", breaker="gpu0") == 1
        )
        assert metrics.value("resilience.breaker.state", breaker="gpu0") == 0
