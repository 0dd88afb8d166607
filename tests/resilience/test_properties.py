"""Property-style guarantees: every fault at every site, for every
algorithm, either recovers to the exact top-k or raises a typed
:class:`~repro.errors.ReproError` — never a wrong answer, never a bare
exception.  NaN and Inf payloads keep the same guarantee."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.errors import ReproError
from repro.gpu.faults import FAULT_TYPES, FaultInjector, FaultPlan, inject
from repro.resilience import ResilientExecutor

ALGORITHMS = ("bitonic", "radix-select", "bucket-select", "sort", "per-thread")

SITES = ("kernel-launch", "result-transfer", "result-buffer")


def _expected(data, k):
    return reference_topk(data, k)[0]


def _run_under_fault(data, k, algorithm, site, fault, silent=False, seed=0):
    """Returns ("exact"|"typed-error", result_or_error)."""
    injector = FaultInjector(
        seed=seed,
        plans=[
            FaultPlan(
                site=site, fault=fault, nth=1, silent=silent, max_injections=2
            )
        ],
    )
    try:
        with inject(injector):
            result = ResilientExecutor().run(data, k, algorithm=algorithm)
    except ReproError as error:
        return "typed-error", error
    assert np.array_equal(result.values, _expected(data, k)), (
        f"{algorithm} under {fault}@{site} returned a wrong answer"
    )
    return "exact", result


def _assert_nan_answer(data, k, fault):
    injector = FaultInjector(
        seed=0,
        plans=[FaultPlan(site="kernel-launch", fault=fault, nth=1)],
    )
    try:
        with inject(injector):
            result = ResilientExecutor().run(data, k)
    except ReproError:
        return
    assert len(result.values) == len(result.indices) == k
    assert np.array_equal(data[result.indices], result.values, equal_nan=True)
    expected, rows = reference_topk(data, k)
    assert np.array_equal(result.values, expected, equal_nan=True)
    assert np.array_equal(result.indices, rows)


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(99).standard_normal(2048).astype(np.float32)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("fault", FAULT_TYPES)
def test_exact_or_typed_for_every_combination(data, algorithm, site, fault):
    outcome, _ = _run_under_fault(data, 32, algorithm, site, fault)
    # A single bounded fault must always be survivable: either retried or
    # absorbed by a fallback, so the strong form of the property holds.
    assert outcome == "exact"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_silent_corruption_exact_or_typed(data, algorithm):
    outcome, _ = _run_under_fault(
        data, 32, algorithm, "result-buffer", "memory-corruption", silent=True
    )
    assert outcome == "exact"


class TestSpecialPayloads:
    @pytest.fixture
    def inf_data(self):
        data = np.random.default_rng(7).standard_normal(2048)
        data = data.astype(np.float32)
        data[::97] = np.inf
        data[1::191] = -np.inf
        return data

    @pytest.fixture
    def nan_data(self):
        data = np.random.default_rng(8).standard_normal(2048)
        data = data.astype(np.float32)
        data[::131] = np.nan
        return data

    @pytest.mark.parametrize("fault", FAULT_TYPES)
    def test_inf_payload_survives_faults(self, inf_data, fault):
        outcome, _ = _run_under_fault(
            inf_data, 16, "bitonic", "kernel-launch", fault
        )
        assert outcome == "exact"

    @pytest.mark.parametrize("fault", FAULT_TYPES)
    def test_nan_payload_exact_or_typed(self, nan_data, fault):
        """NaN ranks last, as in the oracle: the answer is the oracle's
        values on rows that hold them, or a typed error."""
        _assert_nan_answer(nan_data, 16, fault)

    @pytest.mark.parametrize("fault", FAULT_TYPES)
    def test_nan_tail_exact_or_typed(self, nan_data, fault):
        """k reaches into the NaN rows: they fill the tail, in any order."""
        _assert_nan_answer(nan_data, 2040, fault)

    def test_nan_payload_silent_corruption_never_hangs(self, nan_data):
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
        try:
            with inject(injector):
                result = ResilientExecutor().run(nan_data, 16)
        except ReproError:
            return
        expected, _ = reference_topk(nan_data, 16)
        assert np.array_equal(result.values, expected, equal_nan=True)
