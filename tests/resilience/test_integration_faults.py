"""Fault handling in the surrounding layers: the CPU+GPU device group,
chunked pipeline, query engine, planner degradation, CLI exit codes."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.cli import main
from repro.core.chunked import ChunkedTopK
from repro.core.topk import topk
from repro.cpu.spec import I7_6900
from repro.engine.session import Session
from repro.engine.twitter import generate_tweets
from repro.errors import (
    EXIT_CODES,
    DeviceLostError,
    InvalidParameterError,
    ReproError,
    TransferError,
    exit_code,
)
from repro.gpu.device import get_device
from repro.gpu.faults import FaultInjector, FaultPlan, inject
from repro.sharding import ShardedTopK


@pytest.fixture
def data(rng):
    return rng.standard_normal(8192).astype(np.float32)


@pytest.fixture
def expected(data):
    return reference_topk(data, 32)[0]


def cpu_gpu_group():
    """The hybrid split: the GPU coordinates and the CPU takes a shard."""
    return ShardedTopK(devices=[get_device(), I7_6900], inner="bitonic")


def first_launch_lost():
    return FaultInjector(
        seed=0,
        plans=[FaultPlan(site="device-launch", fault="device-lost", nth=1)],
    )


class TestCpuGpuGroup:
    def test_gpu_loss_absorbed_by_cpu(self, data):
        with inject(first_launch_lost()):
            result = cpu_gpu_group().run(data, 32)
        values, rows = reference_topk(data, 32)
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.indices, rows)
        assert result.trace.notes["sharding.shards_lost"] == 1.0

    def test_gpu_loss_costs_simulated_time(self, data):
        # At model scale the CPU rescanning the GPU's rows dominates. At
        # the bare functional size the lost GPU shard's launch overhead
        # outweighs its rows, and losing it prices below the clean run.
        model_n = 1 << 29
        baseline = cpu_gpu_group().run(data, 32, model_n=model_n)
        with inject(first_launch_lost()):
            degraded = cpu_gpu_group().run(data, 32, model_n=model_n)
        assert degraded.simulated_ms() > baseline.simulated_ms()

    def test_every_gpu_launch_lost_leaves_the_cpu(self, data):
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="device-launch",
                    fault="device-lost",
                    probability=1.0,
                    max_injections=None,
                )
            ],
        )
        with inject(injector):
            result = cpu_gpu_group().run(data, 32)
        values, rows = reference_topk(data, 32)
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.indices, rows)
        # The CPU shard (shard#1) has no launch to lose.
        assert [detail for _, detail, _ in injector.schedule()] == ["shard#0"]

    @pytest.mark.parametrize(
        "group",
        [[I7_6900, get_device()], [I7_6900, I7_6900]],
        ids=["cpu-first", "all-cpu"],
    )
    def test_cpu_coordinator_rejected(self, group):
        with pytest.raises(InvalidParameterError):
            ShardedTopK(devices=group)


class TestChunkedPipeline:
    def test_chunk_transfer_fault_retried(self, data, expected):
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="pcie-transfer", fault="transfer-error", nth=1
                )
            ],
        )
        runner = ChunkedTopK(memory_budget_bytes=8192 * 2)
        with inject(injector):
            result = runner.run(data, 32)
        assert np.array_equal(result.values, expected)
        assert result.trace.notes["transfer_retries"] == 1.0

    def test_persistent_transfer_fault_surfaces_typed(self, data):
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="pcie-transfer",
                    fault="transfer-error",
                    probability=1.0,
                    max_injections=None,
                )
            ],
        )
        runner = ChunkedTopK(memory_budget_bytes=8192 * 2)
        with pytest.raises(TransferError):
            with inject(injector):
                runner.run(data, 32)


class TestEngine:
    @pytest.fixture
    def session(self):
        session = Session()
        session.register(generate_tweets(1 << 12, seed=3))
        return session

    SQL = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 20"

    def test_query_survives_functional_fault(self, session):
        clean = session.sql(self.SQL).column("id")
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="kernel-launch", fault="device-lost", nth=1
                )
            ],
        )
        with inject(injector):
            survived = session.sql(self.SQL).column("id")
        assert np.array_equal(clean, survived)

    def test_query_falls_back_to_cpu_oracle(self, session):
        # Tie-breaks among equal retweet_counts are implementation-defined
        # between the bitonic path and the CPU oracle, so compare the
        # selected id *sets* and the ranking keys, not the exact id order.
        clean = session.sql(self.SQL)
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="kernel-launch",
                    fault="device-lost",
                    probability=1.0,
                    max_injections=None,
                )
            ],
        )
        with inject(injector):
            survived = session.sql(self.SQL)
        table = session.table("tweets")
        ranks = table.column("retweet_count")
        id_to_row = {row_id: row for row, row_id in enumerate(table.column("id"))}
        clean_ranks = [ranks[id_to_row[i]] for i in clean.column("id")]
        survived_ranks = [ranks[id_to_row[i]] for i in survived.column("id")]
        assert clean_ranks == survived_ranks

    def test_negative_limit_rejected(self, session):
        with pytest.raises(InvalidParameterError):
            session.sql("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT -1")

    def test_bad_model_rows_rejected(self, session):
        with pytest.raises(InvalidParameterError):
            session.sql(self.SQL, model_rows=0)


class TestPlannerDegradation:
    def test_auto_skips_runtime_infeasible_candidate(self, rng):
        # A k small enough for every model but with the per-thread heap
        # forced infeasible at runtime via an injected capacity fault on
        # its first kernel launch.
        data = rng.standard_normal(4096).astype(np.float32)
        expected = reference_topk(data, 16)[0]
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="kernel-launch",
                    fault="resource-exhausted",
                    nth=1,
                )
            ],
        )
        with inject(injector):
            result = topk(data, 16, algorithm="auto")
        assert np.array_equal(result.values, expected)

    def test_explicit_algorithm_surfaces_capacity_error(self, rng):
        from repro.errors import ResourceExhaustedError

        data = rng.standard_normal(4096).astype(np.float32)
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="kernel-launch",
                    fault="resource-exhausted",
                    nth=1,
                )
            ],
        )
        with pytest.raises(ResourceExhaustedError):
            with inject(injector):
                topk(data, 16, algorithm="bitonic")


class TestKValidation:
    @pytest.mark.parametrize("bad_k", [0, -1, 10**9])
    def test_topk_rejects_bad_k(self, rng, bad_k):
        data = rng.standard_normal(128).astype(np.float32)
        with pytest.raises(InvalidParameterError):
            topk(data, bad_k)

    def test_topk_rejects_non_integer_k(self, rng):
        data = rng.standard_normal(128).astype(np.float32)
        with pytest.raises(InvalidParameterError):
            topk(data, 2.5)
        with pytest.raises(InvalidParameterError):
            topk(data, True)


class TestCliExitCodes:
    def test_typed_error_exit_code(self, capsys):
        code = main(["topk", "--n", "64", "--k", "128"])
        captured = capsys.readouterr()
        assert code == EXIT_CODES[InvalidParameterError]
        assert "InvalidParameterError" in captured.err
        assert captured.err.count("\n") == 1

    def test_exit_codes_distinct_per_class(self):
        codes = list(EXIT_CODES.values())
        assert len(codes) == len(set(codes))
        assert all(code != 0 for code in codes)

    def test_exit_code_walks_mro(self):
        class CustomLoss(DeviceLostError):
            pass

        assert exit_code(CustomLoss("x")) == EXIT_CODES[DeviceLostError]
        assert exit_code(ValueError("x")) not in (0,)

    def test_chaos_command_runs(self, capsys):
        code = main(["chaos", "--seed", "0", "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "chaos campaign" in captured.out

    def test_chaos_command_json(self, capsys):
        import json

        code = main(["chaos", "--seed", "0", "--trials", "3", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["survived"] is True


class TestReproErrorHierarchy:
    def test_all_fault_errors_are_repro_errors(self):
        from repro.errors import (
            FaultError,
            KernelTimeoutError,
            MemoryCorruptionError,
        )

        for error_type in (
            DeviceLostError,
            MemoryCorruptionError,
            KernelTimeoutError,
            TransferError,
        ):
            assert issubclass(error_type, FaultError)
            assert issubclass(error_type, ReproError)
