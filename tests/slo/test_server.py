"""SloTopKServer: QoS admission, deadlines, and shutdown on the thread path."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.engine.session import Session
from repro.engine.twitter import generate_tweets
from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ResourceExhaustedError,
    ShutdownError,
)
from repro.gpu import faults
from repro.gpu.faults import FaultInjector, FaultPlan
from repro.resilience import BreakerPolicy
from repro.slo import (
    DEFAULT_CLASSES,
    DEGRADE,
    SHED_BREAKER,
    SHED_DEADLINE,
    SloPolicy,
    SloTopKServer,
)


class TestSubmission:
    def test_round_trip_with_qos(self, device, rng):
        data = rng.random(2048).astype(np.float32)
        with SloTopKServer(device=device) as server:
            outcome = server.submit(data, k=16, qos="gold").result(timeout=30)
        expected_values, _ = reference_topk(data, 16)
        assert np.array_equal(outcome.values, expected_values)

    def test_unknown_qos_rejected(self, device, rng):
        with SloTopKServer(device=device) as server:
            with pytest.raises(InvalidParameterError):
                server.submit(rng.random(64).astype(np.float32), k=2, qos="platinum")

    def test_class_queue_budget_enforced(self, device, rng):
        tiny = SloPolicy(
            classes=tuple(
                type(qos)(
                    qos.name,
                    qos.priority,
                    qos.deadline_ms,
                    2,
                    qos.degradable,
                    qos.sheddable,
                )
                for qos in DEFAULT_CLASSES
            )
        )
        data = rng.random(128).astype(np.float32)
        server = SloTopKServer(device=device, policy=tiny, auto_start=False)
        try:
            futures = [server.submit(data, k=4, qos="standard") for _ in range(2)]
            with pytest.raises(ResourceExhaustedError):
                server.submit(data, k=4, qos="standard")
            # Another class's budget is independent of the exhausted one.
            futures.append(server.submit(data, k=4, qos="gold"))
            server.start()
            for future in futures:
                assert future.result(timeout=30).values.shape == (4,)
        finally:
            server.close()

    def test_deadline_accounting_lands_in_metrics(self, device, rng):
        data = rng.random(1024).astype(np.float32)
        with SloTopKServer(device=device) as server:
            server.submit(data, k=8, qos="gold").result(timeout=30)
            server.flush()
            met = server.metrics.value("serving.deadline_met", qos="gold")
            missed = server.metrics.value("serving.deadline_missed", qos="gold")
        assert (met or 0) + (missed or 0) == 1


class TestLadder:
    """The thread door's dispatch cycle without timing: with the dispatcher
    not yet started, its first drain is the whole queued backlog, taken at
    a clock the test sets."""

    def test_one_cycle_sheds_degrades_and_logs(self, device):
        data = np.random.default_rng(0).integers(
            0, 1 << 20, size=50_000, dtype=np.int32
        )
        server = SloTopKServer(device=device, auto_start=False)
        try:
            overdue = server.submit(data, k=64, qos="best-effort", deadline_ms=0.5)
            squeezed = server.submit(data, k=64, qos="standard", deadline_ms=1.01)
            fresh = server.submit(data, k=64, qos="best-effort")
            server.batcher.simulated_ms_total = 1.0  # the cycle runs at 1 ms
            for _ in range(server.policy.breaker.failure_threshold):
                server.breaker.record_failure(1.0)
            server.start()
            with pytest.raises(DeadlineExceededError):
                overdue.result(timeout=30)
            with pytest.raises(ResourceExhaustedError, match="breaker is open"):
                fresh.result(timeout=30)
            # Standard is not sheddable: it runs against the open breaker,
            # degraded because 1 ms + one service estimate passes 1.01 ms.
            outcome = squeezed.result(timeout=30)
            server.flush()
        finally:
            server.close()
        assert outcome.degraded and outcome.expected_recall < 1.0
        assert [
            (decision.action, decision.qos)
            for decision in server.slo_scheduler.decisions
        ] == [
            (SHED_DEADLINE, "best-effort"),
            (DEGRADE, "standard"),
            (SHED_BREAKER, "best-effort"),
        ]
        # A refused cycle owes the breaker nothing.
        assert server.breaker.stats()["state"] == "open"
        assert server.breaker.probes == 0
        assert server.metrics.value("serving.shed", qos="best-effort") == 2

    def test_breaker_recovers_under_sheddable_only_traffic(self, device, rng):
        data = rng.random(4096).astype(np.float32)
        lost = FaultInjector(
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
        with SloTopKServer(device=device) as server:
            with faults.inject(lost):
                for _ in range(server.policy.breaker.failure_threshold):
                    server.submit(data, k=8, qos="best-effort").result(timeout=30)
            assert server.breaker.state == "open"
            # The device is healthy again and only sheddable traffic
            # arrives: each shed moves the clock, so the cooldown ends and
            # a half-open probe runs and closes the breaker.
            for _ in range(20):
                future = server.submit(data, k=8, qos="best-effort")
                try:
                    future.result(timeout=30)
                except ResourceExhaustedError:
                    continue
                break
            server.flush()
            assert server.breaker.probes >= 1
            assert server.breaker.state == "closed"


class TestShutdown:
    def test_close_fails_undispatched_slo_futures(self, device, rng):
        server = SloTopKServer(device=device, auto_start=False)
        future = server.submit(rng.random(64).astype(np.float32), k=2)
        server.close()
        with pytest.raises(ShutdownError):
            future.result(timeout=5)


class TestStats:
    def test_stats_expose_the_slo_layer(self, device, rng):
        with SloTopKServer(device=device) as server:
            server.submit(rng.random(256).astype(np.float32), k=4).result(timeout=30)
            server.flush()
            stats = server.stats()
        assert stats["slo"]["ewma_service_ms"] > 0
        assert stats["slo"]["breaker"]["state"] == "closed"
        assert stats["slo"]["decisions"] >= 1

    def test_breaker_can_be_disabled(self, device):
        with SloTopKServer(device=device, enable_breaker=False) as server:
            assert server.breaker is None
            assert server.stats()["slo"]["breaker"] is None


class TestSessionIntegration:
    def test_session_serve_slo_flag(self, device):
        session = Session(device)
        session.register(generate_tweets(4096, seed=7))
        with session.serve(slo=True) as server:
            assert isinstance(server, SloTopKServer)
            outcome = server.submit(
                table="tweets", column="likes_count", k=10, qos="best-effort"
            ).result(timeout=30)
        column = session.table("tweets").column("likes_count")
        expected_values, _ = reference_topk(column, 10)
        assert np.array_equal(outcome.values, expected_values)

    def test_session_serve_accepts_a_policy(self, device):
        session = Session(device)
        policy = SloPolicy(
            degraded_recall=0.97, breaker=BreakerPolicy(failure_threshold=5)
        )
        with session.serve(slo=policy) as server:
            assert server.policy.degraded_recall == 0.97
            assert server.breaker.policy.failure_threshold == 5

    def test_session_serve_default_stays_plain(self, device):
        session = Session(device)
        with session.serve() as server:
            assert not isinstance(server, SloTopKServer)
