"""TopKServer: futures, admission control, lifecycle, session queries."""

import threading

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.engine.session import Session
from repro.engine.twitter import generate_tweets
from repro.errors import InvalidParameterError, ResourceExhaustedError
from repro.gpu import faults
from repro.serving import TopKServer


class TestRoundTrip:
    def test_submit_returns_correct_topk(self, device, rng):
        with TopKServer(device=device) as server:
            data = rng.random(1000).astype(np.float32)
            outcome = server.submit(data, k=10).result(timeout=30)
        expected_values, _ = reference_topk(data, 10)
        assert np.array_equal(outcome.values, expected_values)
        assert np.array_equal(data[outcome.indices], outcome.values)
        assert outcome.k == 10 and outcome.n == 1000

    def test_query_is_synchronous(self, device, rng):
        with TopKServer(device=device) as server:
            data = rng.random(500).astype(np.float32)
            outcome = server.query(data, k=5)
        expected_values, _ = reference_topk(data, 5)
        assert np.array_equal(outcome.values, expected_values)

    def test_many_concurrent_queries_all_answered(self, device, rng):
        payloads = [rng.random(512).astype(np.float32) for _ in range(64)]
        with TopKServer(device=device) as server:
            futures = server.submit_many((data, 8) for data in payloads)
            outcomes = [future.result(timeout=30) for future in futures]
        for data, outcome in zip(payloads, outcomes):
            expected_values, _ = reference_topk(data, 8)
            assert np.array_equal(outcome.values, expected_values)

    def test_concurrent_load_forms_batches(self, device, rng):
        # Stall the dispatcher (auto_start=False) so the backlog
        # accumulates, then start it: the drain must fuse the queries.
        server = TopKServer(device=device, auto_start=False)
        futures = [
            server.submit(rng.random(512).astype(np.float32), k=8)
            for _ in range(20)
        ]
        server.start()
        for future in futures:
            future.result(timeout=30)
        server.close()
        assert server.batcher.batched_queries == 20
        assert server.batcher.batches <= 2
        assert server.plan_cache.hits >= 19

    def test_submissions_from_many_threads(self, device):
        errors = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                data = rng.random(400).astype(np.float32)
                outcome = server.query(data, k=4)
                expected_values, _ = reference_topk(data, 4)
                assert np.array_equal(outcome.values, expected_values)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        with TopKServer(device=device) as server:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, device, rng):
        server = TopKServer(device=device, max_pending=3, auto_start=False)
        for _ in range(3):
            server.submit(rng.random(64).astype(np.float32), k=2)
        with pytest.raises(ResourceExhaustedError):
            server.submit(rng.random(64).astype(np.float32), k=2)
        assert server.metrics.value("serving.rejected") == 1
        server.start()
        server.close()

    def test_shed_load_recovers_after_drain(self, device, rng):
        server = TopKServer(device=device, max_pending=2, auto_start=False)
        futures = [
            server.submit(rng.random(64).astype(np.float32), k=2)
            for _ in range(2)
        ]
        with pytest.raises(ResourceExhaustedError):
            server.submit(rng.random(64).astype(np.float32), k=2)
        server.start()
        for future in futures:
            future.result(timeout=30)
        server.flush()
        outcome = server.query(rng.random(64).astype(np.float32), k=2)
        assert outcome.values.shape == (2,)
        server.close()

    def test_slot_frees_before_its_future_resolves(self, device, rng):
        # A and B drain together but run as separate groups.  While B's
        # group is held, A's answer must already have freed A's slot.
        server = TopKServer(device=device, max_pending=2, auto_start=False)
        release = threading.Event()
        execute = server.batcher.execute

        def held_execute(group):
            if len(group[0].data) == 2048:
                release.wait(timeout=30)
            return execute(group)

        server.batcher.execute = held_execute
        first = server.submit(rng.random(4096).astype(np.float32), k=4)
        held = server.submit(rng.random(2048).astype(np.float32), k=4)
        server.start()
        try:
            first.result(timeout=30)
            third = server.submit(rng.random(64).astype(np.float32), k=2)
        finally:
            release.set()
        held.result(timeout=30)
        third.result(timeout=30)
        server.close()

    def test_max_pending_must_be_positive(self, device):
        with pytest.raises(InvalidParameterError):
            TopKServer(device=device, max_pending=0)


class TestValidation:
    def test_invalid_k_rejected_at_submit(self, device, rng):
        with TopKServer(device=device) as server:
            with pytest.raises(InvalidParameterError):
                server.submit(rng.random(16).astype(np.float32), k=0)
            with pytest.raises(InvalidParameterError):
                server.submit(rng.random(16).astype(np.float32), k=17)

    def test_data_and_table_are_mutually_exclusive(self, device, rng):
        with TopKServer(device=device) as server:
            with pytest.raises(InvalidParameterError):
                server.submit(
                    rng.random(16).astype(np.float32), k=2, table="tweets"
                )
            with pytest.raises(InvalidParameterError):
                server.submit(k=2)

    def test_table_query_requires_session(self, device):
        with TopKServer(device=device) as server:
            with pytest.raises(InvalidParameterError):
                server.submit(table="tweets", column="likes_count", k=5)

    def test_closed_server_rejects_submissions(self, device, rng):
        server = TopKServer(device=device)
        server.close()
        with pytest.raises(InvalidParameterError):
            server.submit(rng.random(16).astype(np.float32), k=2)

    def test_planning_failure_fails_only_that_future(self, device, rng):
        with TopKServer(device=device) as server:
            first = server.submit(rng.random(64).astype(np.float32), k=2)
            first.result(timeout=30)

            def exploding_bound(*args, **kwargs):
                raise InvalidParameterError("boom")

            server.plan_cache.bound = exploding_bound
            doomed = server.submit(rng.random(64).astype(np.float32), k=2)
            with pytest.raises(InvalidParameterError):
                doomed.result(timeout=30)
            # The dispatcher survives; later queries still get answers
            # (restore planning first).
            del server.plan_cache.bound
            after = server.submit(rng.random(64).astype(np.float32), k=2)
            assert after.result(timeout=30).values.shape == (2,)


class TestSessionIntegration:
    def test_table_column_queries_resolve_through_session(self, device):
        session = Session(device)
        session.register(generate_tweets(4096, seed=7))
        with session.serve() as server:
            outcome = server.query(table="tweets", column="likes_count", k=10)
        column = session.table("tweets").column("likes_count")
        expected_values, _ = reference_topk(column, 10)
        assert np.array_equal(outcome.values, expected_values)

    def test_session_serve_adopts_metrics_registry(self, device):
        session = Session(device, trace=True)
        session.register(generate_tweets(1024, seed=7))
        with session.serve() as server:
            server.query(table="tweets", column="likes_count", k=5)
        assert session.metrics.value("serving.submitted") == 1
        assert session.metrics.value("serving.completed") == 1


class TestFaultPropagation:
    def test_injector_captured_at_submit_crosses_the_thread(self, device, rng):
        data = rng.random(256).astype(np.float32)
        plan = faults.FaultPlan(
            site="kernel-launch", fault="device-lost", nth=1
        )
        with TopKServer(device=device) as server:
            with faults.inject(faults.FaultInjector(seed=0, plans=[plan])):
                future = server.submit(data, k=4)
            outcome = future.result(timeout=30)
        expected_values, _ = reference_topk(data, 4)
        assert np.array_equal(outcome.values, expected_values)
        assert outcome.fell_back


class TestStats:
    def test_stats_aggregates_all_layers(self, device, rng):
        with TopKServer(device=device) as server:
            for _ in range(5):
                server.query(rng.random(128).astype(np.float32), k=4)
            stats = server.stats()
        assert stats["submitted"] == 5
        assert stats["completed"] == 5
        assert stats["plan_cache"]["misses"] >= 1
        assert "batcher" in stats and "max_pending" in stats


class TestQueueWait:
    def test_queue_wait_recorded_on_outcome_and_metrics(self, device, rng):
        with TopKServer(device=device) as server:
            outcome = server.query(rng.random(256).astype(np.float32), k=4)
            wall = server.metrics.histogram("serving.queue_wait_wall_ms")
            sim = server.metrics.histogram("serving.queue_wait_sim_ms")
        assert outcome.queue_wait_wall_ms >= 0.0
        assert outcome.queue_wait_sim_ms >= 0.0
        assert wall.count == 1 and sim.count == 1

    def test_queue_wait_attribution_survives_batching(self, device, rng):
        data = rng.random(512).astype(np.float32)
        server = TopKServer(device=device, auto_start=False)
        try:
            # Queue both before the dispatcher exists: they drain (and
            # batch) together in the first dispatch cycle.
            futures = [server.submit(data, k=4) for _ in range(2)]
            server.start()
            outcomes = [future.result(timeout=30) for future in futures]
        finally:
            server.close()
        assert all(o.queue_wait_wall_ms >= 0.0 for o in outcomes)


class TestShutdownResolution:
    def test_close_fails_pending_futures_when_never_started(self, device, rng):
        from repro.errors import ShutdownError

        server = TopKServer(device=device, auto_start=False)
        futures = [
            server.submit(rng.random(64).astype(np.float32), k=2)
            for _ in range(3)
        ]
        server.close()
        for future in futures:
            with pytest.raises(ShutdownError):
                future.result(timeout=5)
        assert server.metrics.value("serving.abandoned") == 3
        assert server.metrics.value("serving.failed") == 3

    def test_running_server_drains_instead_of_abandoning(self, device, rng):
        server = TopKServer(device=device)
        future = server.submit(rng.random(64).astype(np.float32), k=2)
        server.close()
        assert future.result(timeout=5).values.shape == (2,)
        assert server.metrics.value("serving.abandoned") is None
