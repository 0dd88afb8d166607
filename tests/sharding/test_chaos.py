"""Shard-loss chaos: redistribution keeps the answer exact, cascading
losses degrade gracefully, total loss surfaces the typed error that
composes with the Fallback chain, and a failed candidate gather is
retried with simulated backoff."""

import numpy as np
import pytest

from repro import observability as obs
from repro.algorithms.base import reference_topk
from repro.errors import DeviceLostError, TransferError
from repro.gpu import faults
from repro.gpu.device import get_device
from repro.gpu.timing import BACKOFF_KERNEL
from repro.sharding import ShardedTopK
from repro.sharding.executor import GATHER_KERNEL, REDISTRIBUTE_KERNEL

#: Four-shard executors: four copies of the paper's GPU, or a mixed group.
GROUPS = {
    "uniform": lambda device: ShardedTopK(device, shards=4),
    "mixed": lambda device: ShardedTopK(
        devices=[device, get_device("v100")] * 2
    ),
}


def lose(detail_match, nth=1, max_injections=1):
    return faults.FaultPlan(
        site="device-launch",
        fault="device-lost",
        nth=nth,
        max_injections=max_injections,
        match=detail_match,
    )


class TestSingleShardLoss:
    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_result_stays_exact(self, rng, device, group):
        data = rng.random(4096).astype(np.float32)
        injector = faults.FaultInjector(seed=0, plans=[lose("shard#1")])
        with faults.inject(injector):
            result = GROUPS[group](device).run(data, 64)
        values, indices = reference_topk(data, 64)
        np.testing.assert_array_equal(result.values, values)
        np.testing.assert_array_equal(result.indices, indices)

    def test_trace_accounts_the_recovery(self, rng, device):
        data = rng.random(4096).astype(np.float32)
        injector = faults.FaultInjector(seed=0, plans=[lose("shard#2")])
        with faults.inject(injector):
            result = ShardedTopK(device, shards=4).run(data, 32)
        names = [kernel.name for kernel in result.trace.kernels]
        assert REDISTRIBUTE_KERNEL in names
        assert result.trace.notes["sharding.shards_lost"] == 1.0
        # One lost range split across the three survivors.
        assert result.trace.notes["sharding.redistributed"] == 3.0

    def test_recovery_costs_simulated_time(self, rng, device):
        from repro.gpu.timing import trace_time

        data = rng.random(4096).astype(np.float32)
        clean = ShardedTopK(device, shards=4).run(data, 32)
        injector = faults.FaultInjector(seed=0, plans=[lose("shard#0")])
        with faults.inject(injector):
            faulty = ShardedTopK(device, shards=4).run(data, 32)
        assert (
            trace_time(faulty.trace, device).total
            > trace_time(clean.trace, device).total
        )


    def test_group_without_injector_loses_nothing(self, rng, device):
        data = rng.random(4096).astype(np.float32)
        result = GROUPS["mixed"](device).run(data, 32)
        np.testing.assert_array_equal(
            result.values, reference_topk(data, 32)[0]
        )
        assert result.trace.notes["sharding.shards_lost"] == 0.0
        names = [kernel.name for kernel in result.trace.kernels]
        assert REDISTRIBUTE_KERNEL not in names

    def test_group_loss_costs_simulated_time(self, rng, device):
        data = rng.random(4096).astype(np.float32)
        clean = GROUPS["mixed"](device).run(data, 32)
        injector = faults.FaultInjector(seed=0, plans=[lose("shard#0")])
        with faults.inject(injector):
            faulty = GROUPS["mixed"](device).run(data, 32)
        assert faulty.simulated_ms(device) > clean.simulated_ms(device)
        names = [kernel.name for kernel in faulty.trace.kernels]
        assert REDISTRIBUTE_KERNEL in names


class TestCascadingLoss:
    @pytest.mark.parametrize(
        "plans, lost",
        [
            # A redistribute target is lost too and re-queues its piece.
            ([lose("shard#1"), lose("shard#0:redistribute")], 1),
            # Three of four launches lost: the one survivor does it all.
            (
                [
                    faults.FaultPlan(
                        site="device-launch",
                        fault="device-lost",
                        probability=1.0,
                        max_injections=3,
                    )
                ],
                3,
            ),
        ],
        ids=["redistribute-target", "one-survivor"],
    )
    def test_cascading_loss_stays_exact(self, rng, device, plans, lost):
        data = rng.random(4096).astype(np.float32)
        with faults.inject(faults.FaultInjector(seed=0, plans=plans)):
            result = ShardedTopK(device, shards=4).run(data, 64)
        values, indices = reference_topk(data, 64)
        np.testing.assert_array_equal(result.values, values)
        np.testing.assert_array_equal(result.indices, indices)
        assert result.trace.notes["sharding.shards_lost"] == float(lost)

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_all_launches_lost_raises_the_typed_error(
        self, rng, device, group
    ):
        data = rng.random(1024).astype(np.float32)
        plans = [
            faults.FaultPlan(
                site="device-launch",
                fault="device-lost",
                probability=1.0,
                max_injections=None,
                match="shard#",
            )
        ]
        with faults.inject(faults.FaultInjector(seed=0, plans=plans)):
            with pytest.raises(DeviceLostError, match="all 4 shards lost"):
                GROUPS[group](device).run(data, 16)

    def test_identical_seeds_replay_identically(self, rng, device):
        data = rng.random(4096).astype(np.float32)

        def run_once():
            plan = faults.FaultPlan(
                site="device-launch",
                fault="device-lost",
                probability=0.5,
                max_injections=1,
            )
            injector = faults.FaultInjector(seed=5, plans=[plan])
            with faults.inject(injector):
                result = GROUPS["mixed"](device).run(data, 32)
            return (
                result.simulated_ms(),
                injector.schedule(),
                result.trace.notes["sharding.shards_lost"],
            )

        assert run_once() == run_once()


class TestGatherTransfer:
    def transfer_error(self, **plan):
        return faults.FaultInjector(
            seed=0,
            plans=[
                faults.FaultPlan(
                    site="pcie-transfer", fault="transfer-error", **plan
                )
            ],
        )

    def test_failed_gather_is_retried_with_backoff(self, rng, device):
        data = rng.random(4096).astype(np.float32)
        clean = ShardedTopK(device, shards=2).run(data, 32)
        observation = obs.Observation(None, obs.MetricsRegistry())
        injector = self.transfer_error(nth=1)
        with observation.activate(), faults.inject(injector):
            result = ShardedTopK(device, shards=2).run(data, 32)
        assert injector.schedule() == [
            ("pcie-transfer", GATHER_KERNEL, "transfer-error")
        ]
        np.testing.assert_array_equal(result.values, clean.values)
        np.testing.assert_array_equal(result.indices, clean.indices)
        assert result.trace.kernels[-1].name == BACKOFF_KERNEL
        assert result.trace.notes["transfer_retries"] == 1.0
        # One 1 ms backoff on top of the clean run.
        assert result.simulated_ms() == pytest.approx(clean.simulated_ms() + 1.0)
        assert observation.metrics.value(
            "resilience.retries", algorithm="sharded", fault="TransferError"
        ) == 1.0

    def test_gather_gives_up_after_bounded_retries(self, rng, device):
        data = rng.random(1024).astype(np.float32)
        injector = self.transfer_error(probability=1.0, max_injections=None)
        with faults.inject(injector), pytest.raises(TransferError):
            ShardedTopK(device, shards=2).run(data, 8)
        assert injector.num_injections == 4


class TestFallbackComposition:
    def test_resilient_executor_survives_total_shard_loss(self, rng, device):
        # The sharded stage dies at launch; the chain's next alternative
        # answers, so the query never fails.
        from repro.resilience.executor import ResilientExecutor
        from repro.resilience.retry import NO_RETRY

        data = rng.random(2048).astype(np.float32)
        plans = [
            faults.FaultPlan(
                site="device-launch",
                fault="device-lost",
                probability=1.0,
                max_injections=None,
                match="shard#",
            )
        ]
        executor = ResilientExecutor(device=device, retry=NO_RETRY)
        with faults.inject(faults.FaultInjector(seed=0, plans=plans)):
            result = executor.run(data, 32, algorithm="sharded")
        assert result.algorithm != "sharded"
        values, indices = reference_topk(data, 32)
        np.testing.assert_array_equal(result.values, values)
        np.testing.assert_array_equal(result.indices, indices)
