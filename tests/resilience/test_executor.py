"""The resilient executor: retries, fallbacks, verification, zero cost."""

import numpy as np
import pytest

from repro import observability as obs
from repro.algorithms.base import reference_topk
from repro.algorithms.registry import create_for_node
from repro.core.topk import topk
from repro.errors import InvalidParameterError, TransferError
from repro.gpu.faults import FaultInjector, FaultPlan, inject
from repro.gpu.timing import BACKOFF_KERNEL
from repro.resilience import (
    AttemptLog,
    ResilientExecutor,
    RetryPolicy,
    resilient_topk,
)


@pytest.fixture
def data(rng):
    return rng.standard_normal(4096).astype(np.float32)


@pytest.fixture
def expected(data):
    return reference_topk(data, 32)[0]


class TestZeroCost:
    def test_no_injector_identical_values_and_timing(self, data):
        plain = topk(data, 32)
        resilient = resilient_topk(data, 32)
        assert np.array_equal(plain.values, resilient.values)
        assert np.array_equal(plain.indices, resilient.indices)
        assert plain.simulated_ms() == resilient.simulated_ms()

    def test_no_backoff_kernel_without_faults(self, data):
        result = resilient_topk(data, 32)
        names = [kernel.name for kernel in result.trace.kernels]
        assert BACKOFF_KERNEL not in names


class TestRetry:
    def test_transient_fault_retried_to_exact_result(self, data, expected):
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(site="kernel-launch", fault="device-lost", nth=1)
            ],
        )
        log = AttemptLog()
        with inject(injector):
            result = ResilientExecutor().run(data, 32, log=log)
        assert np.array_equal(result.values, expected)
        assert log.retries == 1
        assert log.fallbacks == []

    def test_backoff_charged_in_simulated_time(self, data):
        baseline = resilient_topk(data, 32).simulated_ms()
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(site="kernel-launch", fault="device-lost", nth=1)
            ],
        )
        with inject(injector):
            result = resilient_topk(data, 32)
        names = [kernel.name for kernel in result.trace.kernels]
        assert BACKOFF_KERNEL in names
        assert result.simulated_ms() > baseline

    def test_retry_policy_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff_seconds=1e-3,
            multiplier=2.0,
            max_backoff_seconds=3e-3,
        )
        backoffs = [policy.backoff_seconds(a) for a in range(1, 5)]
        assert backoffs == [1e-3, 2e-3, 3e-3, 3e-3]


class TestFallback:
    def test_persistent_fault_falls_back(self, data, expected):
        # Exactly enough injections to exhaust the first stage's retry
        # budget (3 attempts, each dying on its first kernel launch), so
        # the executor must fall back — and the next stage then runs clean.
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="kernel-launch",
                    fault="device-lost",
                    probability=1.0,
                    max_injections=3,
                )
            ],
        )
        log = AttemptLog()
        with inject(injector):
            result = ResilientExecutor().run(
                data, 32, algorithm="bitonic", log=log
            )
        assert np.array_equal(result.values, expected)
        assert log.fallbacks, "expected at least one fallback transition"
        assert result.algorithm != "bitonic"

    def test_everything_down_reaches_cpu(self, data, expected):
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
            result = resilient_topk(data, 32)
        assert np.array_equal(result.values, expected)
        assert result.algorithm == "cpu-hand-pq"

    def test_exhausted_chain_raises_typed_error(self, data):
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="result-transfer",
                    fault="transfer-error",
                    probability=1.0,
                    max_injections=None,
                )
            ],
        )
        executor = ResilientExecutor(
            retry=RetryPolicy(max_attempts=2), cpu_fallback=False
        )
        with inject(injector):
            with pytest.raises(TransferError):
                executor.run(data, 32)

    def test_chain_ends_with_cpu(self, data):
        chain = ResilientExecutor().fallback_chain(
            len(data), 32, data.dtype
        )
        assert chain[-1] == "cpu-heap"
        assert len(set(chain)) == len(chain)


class TestVerification:
    def test_silent_corruption_never_escapes(self, data, expected):
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(
                    site="result-buffer",
                    fault="memory-corruption",
                    nth=1,
                    silent=True,
                )
            ],
        )
        log = AttemptLog()
        with inject(injector):
            result = ResilientExecutor().run(data, 32, log=log)
        assert np.array_equal(result.values, expected)
        assert log.verification_failures >= 1

    def test_validation_still_typed_under_injection(self, data):
        with pytest.raises(InvalidParameterError):
            resilient_topk(data, 0)
        with pytest.raises(InvalidParameterError):
            resilient_topk(data, len(data) + 1)


class TestTerminalStage:
    def test_cpu_stage_answers_in_the_oracles_order(self):
        # Every kernel launch lost: the CPU heap answers, and NaN must rank
        # last with ties broken by lower row, exactly as reference_topk.
        data = (np.arange(4096) % 8).astype(np.float32)
        data[3] = np.nan
        injector = FaultInjector(
            seed=0,
            plans=[FaultPlan(site="kernel-launch", fault="device-lost",
                             probability=1.0, max_injections=None)],
        )
        with inject(injector):
            result = ResilientExecutor().run(data, 16)
        values, rows = reference_topk(data, 16)
        assert result.algorithm == "cpu-hand-pq"
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.indices, rows)

    def test_cpu_stage_keeps_the_cpu_heap_trace(self, data):
        injector = FaultInjector(
            seed=0,
            plans=[FaultPlan(site="kernel-launch", fault="device-lost",
                             probability=1.0, max_injections=None)],
        )
        with inject(injector):
            result = ResilientExecutor(retry=RetryPolicy(max_attempts=1)).run(
                data, 32
            )
        heap = create_for_node(
            ResilientExecutor().fallback_plan(len(data), 32, data.dtype)
            .alternatives[-1]
        ).run(data, 32)
        assert result.simulated_ms() == heap.simulated_ms()


class TestObservability:
    def test_counters_and_spans_recorded(self, data):
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        injector = FaultInjector(
            seed=0,
            plans=[
                FaultPlan(site="kernel-launch", fault="device-lost", nth=1)
            ],
        )
        with observation.activate(), inject(injector):
            resilient_topk(data, 32)
        metrics = {
            instrument.name for instrument in observation.metrics
        }
        assert "faults.injected" in metrics
        assert "plan.attempts" in metrics
        assert observation.metrics.value(
            "plan.attempts", node="bitonic", outcome="retry"
        ) == 1
        assert observation.metrics.value(
            "plan.attempts", node="bitonic", outcome="ok"
        ) == 1
        categories = {
            span.category for span in observation.tracer.spans()
        }
        assert "fault" in categories
        assert "resilience" in categories
