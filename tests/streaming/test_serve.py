"""serve_stream: the per-tick deadline ladder (degrade, shed, breaker)."""

import numpy as np
import pytest

from repro.data.stream import stream_chunk
from repro.errors import InvalidParameterError
from repro.resilience.breaker import BreakerPolicy
from repro.slo.qos import QoSClass, SloPolicy
from repro.streaming.serve import (
    TICK_STATUSES,
    StreamServeReport,
    TickOutcome,
    serve_stream,
)
from repro.streaming.subscription import Subscription
from repro.streaming.window import StreamChunk


def chunk_source(chunk_rows, seed=0):
    """The seeded tweet stream as StreamChunks, like Session.subscribe."""
    tick = 0
    while True:
        chunk = stream_chunk(tick, chunk_rows, seed)
        yield StreamChunk(values=chunk["score"], gids=chunk["id"])
        tick += 1


def subscription(chunk_rows=256, window_chunks=4, mode="incremental"):
    return Subscription(
        8,
        chunk_rows,
        window=window_chunks * chunk_rows,
        mode=mode,
        source_chunks=chunk_source(chunk_rows),
    )


def policy_with(
    deadline_ms,
    degradable,
    sheddable,
    initial_service_ms=0.05,
    failure_threshold=3,
):
    tenant = QoSClass(
        "tenant",
        priority=0,
        deadline_ms=deadline_ms,
        queue_budget=8,
        degradable=degradable,
        sheddable=sheddable,
    )
    return SloPolicy(
        classes=(tenant,),
        initial_service_ms=initial_service_ms,
        breaker=BreakerPolicy(failure_threshold=failure_threshold),
    )


class TestHappyPath:
    def test_generous_deadline_delivers_every_tick(self):
        with subscription() as stream:
            report = serve_stream(
                stream,
                12,
                policy=policy_with(1000.0, False, False),
                qos="tenant",
            )
        assert report.ticks == 12
        assert report.delivered == 12
        assert report.deadline_hit_rate == 1.0
        assert not report.breaker_tripped
        assert all(outcome.status == "ok" for outcome in report.outcomes)

    def test_rejects_zero_ticks(self):
        with subscription() as stream:
            with pytest.raises(InvalidParameterError):
                serve_stream(stream, 0)

    def test_unknown_qos_class_raises(self):
        with subscription() as stream:
            with pytest.raises(InvalidParameterError):
                serve_stream(stream, 4, qos="platinum")


class TestDegrade:
    def test_recompute_window_degrades_in_place(self):
        # Projection starts far over the deadline; the class consents to
        # degradation, so rung 1 flips the maintainer to incremental and
        # serving continues exactly.
        with subscription(mode="recompute") as stream:
            policy = policy_with(
                1.0,
                degradable=True,
                sheddable=False,
                initial_service_ms=50.0,
            )
            report = serve_stream(stream, 10, policy=policy, qos="tenant")
            assert stream.mode == "incremental"
            assert stream.maintainer.mode == "incremental"
        assert report.degraded_ticks == 1
        assert report.outcomes[0].status == "degraded"
        assert report.delivered == 10
        assert report.shed_ticks == 0

    def test_degraded_answers_stay_exact(self):
        # Serve a recompute stream into degradation, then replay the same
        # chunks through an undegraded incremental subscription.
        with subscription(mode="recompute") as degraded:
            policy = policy_with(
                1.0,
                degradable=True,
                sheddable=False,
                initial_service_ms=50.0,
            )
            serve_stream(degraded, 8, policy=policy, qos="tenant")
            degraded_answer = degraded.maintainer.emit()
        with subscription(mode="incremental") as oracle:
            for _ in range(8):
                oracle.step()
            oracle_answer = oracle.maintainer.emit()
        assert np.array_equal(degraded_answer[0], oracle_answer[0], equal_nan=True)
        assert np.array_equal(degraded_answer[1], oracle_answer[1])

    def test_non_degradable_class_never_degrades(self):
        with subscription(mode="recompute") as stream:
            policy = policy_with(
                1.0,
                degradable=False,
                sheddable=False,
                initial_service_ms=50.0,
                failure_threshold=100,
            )
            serve_stream(stream, 6, policy=policy, qos="tenant")
            assert stream.maintainer.mode == "recompute"


class TestShed:
    def test_projected_overrun_sheds_then_recovers(self):
        # Incremental already (nothing to degrade), projection starts high
        # and EWMA-decays below the deadline: early ticks shed, later
        # ticks deliver.
        with subscription() as stream:
            policy = policy_with(
                1.0,
                degradable=True,
                sheddable=True,
                initial_service_ms=10.0,
                failure_threshold=100,
            )
            report = serve_stream(stream, 20, policy=policy, qos="tenant")
        assert report.shed_ticks > 0
        assert report.delivered > 0
        assert not report.breaker_tripped
        sheds = [o for o in report.outcomes if o.status == "shed"]
        assert all(o.error == "DeadlineExceededError" for o in sheds)
        assert all(o.missed for o in sheds)
        # Sheds front-load: once projection recovers it stays recovered.
        statuses = [o.status for o in report.outcomes]
        assert statuses[0] == "shed"
        assert statuses[-1] == "ok"

    def test_shed_ticks_still_advance_the_window(self):
        with subscription() as stream:
            policy = policy_with(
                1.0,
                degradable=False,
                sheddable=True,
                initial_service_ms=10.0,
                failure_threshold=100,
            )
            serve_stream(stream, 5, policy=policy, qos="tenant")
            # Every chunk was absorbed whether or not its emit was paid.
            assert stream.maintainer.ticks == 5


class TestBreaker:
    def test_consecutive_misses_trip_the_breaker(self):
        # An impossible deadline on a rigid class: every tick misses, and
        # after failure_threshold misses the stream stops serving.
        with subscription() as stream:
            policy = policy_with(
                1e-6,
                degradable=False,
                sheddable=False,
                failure_threshold=3,
            )
            report = serve_stream(stream, 50, policy=policy, qos="tenant")
        assert report.breaker_tripped
        assert report.ticks == 4  # 3 misses + the breaker-open record
        assert report.outcomes[-1].status == "breaker-open"
        assert report.outcomes[-1].error == "DeadlineExceededError"
        assert report.deadline_hit_rate == 0.0


class TestReport:
    def outcome(self, tick, status, ms=0.1, missed=False):
        return TickOutcome(
            tick=tick,
            status=status,
            simulated_ms=ms,
            deadline_ms=1.0,
            projected_ms=ms,
            missed=missed,
        )

    def test_summary_counters(self):
        report = StreamServeReport(qos="tenant", deadline_ms=1.0)
        report.outcomes = [
            self.outcome(0, "ok"),
            self.outcome(1, "degraded"),
            self.outcome(2, "shed", missed=True),
            self.outcome(3, "breaker-open", ms=0.0, missed=True),
        ]
        assert report.ticks == 4
        assert report.delivered == 2
        assert report.degraded_ticks == 1
        assert report.shed_ticks == 1
        assert report.breaker_tripped
        assert report.deadline_hit_rate == 0.5

    def test_p99_excludes_breaker_ticks(self):
        report = StreamServeReport(qos="tenant", deadline_ms=1.0)
        report.outcomes = [
            self.outcome(0, "ok", ms=2.0),
            self.outcome(1, "breaker-open", ms=0.0, missed=True),
        ]
        assert report.p99_tick_ms == 2.0

    def test_to_dict_and_render(self):
        report = StreamServeReport(qos="tenant", deadline_ms=1.0)
        report.outcomes = [self.outcome(0, "ok")]
        payload = report.to_dict()
        assert payload["qos"] == "tenant"
        assert payload["outcomes"][0]["status"] == "ok"
        assert "deadline hit rate" in report.render()

    def test_statuses_cover_the_ladder(self):
        assert TICK_STATUSES == ("ok", "degraded", "shed", "breaker-open")
