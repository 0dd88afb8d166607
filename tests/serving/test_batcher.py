"""Cross-query batcher: eligibility, grouping, fused execution, fallback."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.algorithms.registry import create
from repro.core.planner import PlanChoice
from repro.gpu import faults
from repro.serving import (
    BATCHABLE_ALGORITHM,
    CrossQueryBatcher,
    PlanCache,
    ServingRequest,
    network_k,
)


def make_requests(rng, count, n=512, k=8, dtype=np.float32):
    return [
        ServingRequest(data=rng.random(n).astype(dtype), k=k)
        for _ in range(count)
    ]


def force_plan(request, algorithm):
    request.plan = PlanChoice(
        algorithm=algorithm,
        predicted_seconds=1e-3,
        candidates=((algorithm, 1e-3),),
    )


class TestNetworkK:
    @pytest.mark.parametrize(
        "k,expected", [(1, 1), (2, 2), (3, 4), (8, 8), (9, 16), (100, 128)]
    )
    def test_padded_width(self, k, expected):
        assert network_k(k) == expected


class TestGrouping:
    def test_same_shape_queries_share_a_group(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        groups = batcher.group(make_requests(rng, 6))
        assert len(groups) == 1
        assert len(groups[0]) == 6

    def test_mixed_k_share_one_padded_width(self, device, rng):
        # k = 9 and k = 12 need a 16-wide network and k = 8 an 8-wide one,
        # but all three rows pad to one 512-wide tile -> one batch.
        batcher = CrossQueryBatcher(device=device)
        a = ServingRequest(data=rng.random(512).astype(np.float32), k=9)
        b = ServingRequest(data=rng.random(512).astype(np.float32), k=12)
        c = ServingRequest(data=rng.random(512).astype(np.float32), k=8)
        groups = batcher.group([a, b, c])
        assert groups == [[a, b, c]]

    def test_different_n_inside_one_width_share(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        a = ServingRequest(data=rng.random(300).astype(np.float32), k=8)
        b = ServingRequest(data=rng.random(512).astype(np.float32), k=8)
        groups = batcher.group([a, b])
        assert groups == [[a, b]]

    def test_different_n_never_share(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        a = ServingRequest(data=rng.random(512).astype(np.float32), k=8)
        b = ServingRequest(data=rng.random(1024).astype(np.float32), k=8)
        groups = batcher.group([a, b])
        assert len(groups) == 2

    def test_non_bitonic_plans_run_alone(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 4)
        for request in requests:
            force_plan(request, "radix-select")
        groups = batcher.group(requests)
        assert all(len(group) == 1 for group in groups)

    def test_max_batch_chunks_large_backlogs(self, device, rng):
        batcher = CrossQueryBatcher(device=device, max_batch=4)
        requests = make_requests(rng, 10)
        for request in requests:
            force_plan(request, BATCHABLE_ALGORITHM)
        groups = batcher.group(requests)
        assert [len(group) for group in groups] == [4, 4, 2]

    def test_arrival_order_preserved_within_groups(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 5)
        for request in requests:
            force_plan(request, BATCHABLE_ALGORITHM)
        (group,) = batcher.group(requests)
        assert group == requests


class TestExecution:
    def test_batched_group_is_bit_equal_to_single_row(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 5, n=300, k=8)
        for request in requests:
            batcher.plan(request)
        assert all(request.batchable for request in requests)
        outcomes = batcher.execute(requests)
        single = create(BATCHABLE_ALGORITHM, device)
        for request, outcome in zip(requests, outcomes):
            expected = single.run(request.data, request.k)
            assert np.array_equal(outcome.values, expected.values)
            assert np.array_equal(outcome.indices, expected.indices)
            assert outcome.batched and outcome.batch_size == 5
        assert batcher.batches == 1 and batcher.batched_queries == 5

    def test_mixed_k_batch_answers_each_query_at_its_own_k(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        a = ServingRequest(data=rng.random(256).astype(np.float32), k=9)
        b = ServingRequest(data=rng.random(256).astype(np.float32), k=14)
        for request in (a, b):
            force_plan(request, BATCHABLE_ALGORITHM)
        first, second = batcher.execute([a, b])
        assert first.values.shape == (9,)
        assert second.values.shape == (14,)
        for request, outcome in ((a, first), (b, second)):
            expected_values, _ = reference_topk(request.data, request.k)
            assert np.array_equal(outcome.values, expected_values)

    def test_singleton_group_runs_the_planned_algorithm(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        request = make_requests(rng, 1, n=400, k=6)[0]
        force_plan(request, "radix-select")
        (outcome,) = batcher.execute([request])
        assert not outcome.batched
        expected_values, _ = reference_topk(request.data, request.k)
        assert np.array_equal(outcome.values, expected_values)
        assert batcher.single_queries == 1

    def test_simulated_share_divides_the_fused_launch(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 4)
        for request in requests:
            batcher.plan(request)
        outcomes = batcher.execute(requests)
        total = outcomes[0].simulated_ms
        assert total > 0
        for outcome in outcomes:
            assert outcome.simulated_ms == total
            assert outcome.simulated_share_ms == pytest.approx(total / 4)


class TestFaultFallback:
    def test_faulted_batch_falls_back_per_query(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 3, n=256, k=4)
        for request in requests:
            batcher.plan(request)
        injector = faults.FaultInjector(
            seed=0,
            plans=[faults.FaultPlan(site="kernel-launch", fault="device-lost", nth=1)],
        )
        requests[0].injector = injector
        outcomes = batcher.execute(requests)
        assert batcher.batch_fallbacks == 1
        assert batcher.fallback_queries == 3
        for request, outcome in zip(requests, outcomes):
            assert outcome.fell_back
            expected_values, _ = reference_topk(request.data, request.k)
            assert np.array_equal(outcome.values, expected_values)

    def test_unfaulted_batch_does_not_fall_back(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 3)
        for request in requests:
            batcher.plan(request)
        outcomes = batcher.execute(requests)
        assert batcher.batch_fallbacks == 0
        assert all(not outcome.fell_back for outcome in outcomes)


class TestPlanCacheIntegration:
    def test_batcher_reuses_the_shared_cache(self, device, rng):
        cache = PlanCache(device=device)
        batcher = CrossQueryBatcher(plan_cache=cache, device=device)
        for request in make_requests(rng, 5):
            batcher.plan(request)
        assert cache.misses == 1 and cache.hits == 4

    def test_empty_shared_cache_is_not_replaced(self, device):
        # PlanCache defines __len__, so an empty cache is falsy; the
        # batcher must test identity, not truthiness.
        cache = PlanCache(device=device)
        batcher = CrossQueryBatcher(plan_cache=cache, device=device)
        assert batcher.plan_cache is cache


class TestRadixBatching:
    """Radix-planned queries batch among themselves: the Batch node's
    kernel family keeps them out of bitonic groups, and a fused group is
    dispatched through batched_radik_topk."""

    def test_radik_plans_share_a_group(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 5)
        for request in requests:
            force_plan(request, "radik")
        groups = batcher.group(requests)
        assert len(groups) == 1
        assert len(groups[0]) == 5

    def test_radik_and_bitonic_plans_never_mix(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 6)
        for index, request in enumerate(requests):
            force_plan(
                request, "radik" if index % 2 else BATCHABLE_ALGORITHM
            )
        groups = batcher.group(requests)
        assert sorted(len(group) for group in groups) == [3, 3]
        for group in groups:
            algorithms = {request.plan.algorithm for request in group}
            assert len(algorithms) == 1

    def test_batch_nodes_fingerprint_differently_per_kernel(self, device, rng):
        a, b = make_requests(rng, 2)
        force_plan(a, "radik")
        force_plan(b, BATCHABLE_ALGORITHM)
        assert a.key.fingerprint() != b.key.fingerprint()

    def test_fused_radik_group_is_bit_equal_to_single_row(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        requests = make_requests(rng, 4, n=400, k=8)
        for request in requests:
            force_plan(request, "radik")
        outcomes = batcher.execute(requests)
        single = create("radik", device)
        for request, outcome in zip(requests, outcomes):
            expected = single.run(request.data, request.k)
            assert np.array_equal(outcome.values, expected.values)
            assert np.array_equal(outcome.indices, expected.indices)
            assert outcome.batched and outcome.batch_size == 4
            assert outcome.algorithm == "batched-radik"
        assert batcher.batches == 1 and batcher.batched_queries == 4

    def test_mixed_k_radik_batch_answers_each_at_its_own_k(self, device, rng):
        batcher = CrossQueryBatcher(device=device)
        a = ServingRequest(data=rng.random(256).astype(np.float32), k=9)
        b = ServingRequest(data=rng.random(256).astype(np.float32), k=14)
        for request in (a, b):
            force_plan(request, "radik")
        first, second = batcher.execute([a, b])
        assert first.values.shape == (9,)
        assert second.values.shape == (14,)
        for request, outcome in ((a, first), (b, second)):
            expected_values, expected_indices = reference_topk(
                request.data, request.k
            )
            assert np.array_equal(outcome.values, expected_values)
            assert np.array_equal(outcome.indices, expected_indices)

    def test_radik_is_declared_batchable(self):
        from repro.serving import BATCHABLE_ALGORITHMS

        assert "radik" in BATCHABLE_ALGORITHMS
        assert BATCHABLE_ALGORITHM in BATCHABLE_ALGORITHMS
        assert "radix-select" not in BATCHABLE_ALGORITHMS
