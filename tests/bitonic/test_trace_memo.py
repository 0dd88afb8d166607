"""The bitonic trace memo: priced once, copied per call, faults replayed.

``build_trace`` is a pure function of ``(n, k, word, flags, device)``, so
its kernels are priced once and every call returns a fresh copy.  Each
call still passes every kernel through ``trace.launch``, so a
``kernel-launch`` fault plan fires at the same launch on a cold and a
warm call.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bitonic import kernels
from repro.bitonic.kernels import TRACE_CACHE_SIZE, build_trace
from repro.bitonic.optimizations import FULL
from repro.errors import DeviceLostError
from repro.gpu.counters import KernelCounters
from repro.gpu.device import get_device
from repro.gpu.faults import FaultInjector, FaultPlan, inject

ARGS = (1 << 20, 64, 4, FULL, get_device())


@pytest.fixture
def cold():
    kernels._priced.cache_clear()


def _launches():
    """The kernel named at each ``kernel-launch`` point of one call."""
    every_launch = FaultPlan(
        site="kernel-launch",
        fault="device-lost",
        probability=1.0,
        max_injections=None,
        silent=True,
    )
    injector = FaultInjector(plans=[every_launch])
    with inject(injector):
        trace = build_trace(*ARGS)
    return [detail for _, detail, _ in injector.schedule()], trace


def test_cold_and_warm_calls_launch_every_kernel_once(cold):
    cold_names, cold_trace = _launches()
    warm_names, warm_trace = _launches()
    assert cold_names == warm_names == [kernel.name for kernel in cold_trace.kernels]
    assert warm_trace.kernels == cold_trace.kernels
    assert warm_trace.notes == cold_trace.notes
    info = kernels._priced.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("nth", [1, 2, 4])
def test_nth_launch_fault_raises_at_the_same_launch(cold, nth):
    def schedule():
        plan = FaultPlan(site="kernel-launch", fault="device-lost", nth=nth)
        injector = FaultInjector(plans=[plan])
        with inject(injector), pytest.raises(DeviceLostError):
            build_trace(*ARGS)
        return injector.schedule()

    cold_schedule = schedule()
    assert kernels._priced.cache_info().currsize == 1
    assert schedule() == cold_schedule
    assert cold_schedule[0][1] == build_trace(*ARGS).kernels[nth - 1].name


def test_mutating_a_returned_trace_leaves_the_next_call_unchanged():
    expected = build_trace(*ARGS)
    mutated = build_trace(*ARGS)
    mutated.notes["network_k"] = 64
    mutated.notes["kernels"] = -1
    mutated.kernels[0].name = "fused-scan"
    mutated.kernels[0].global_bytes_read = 0.0
    mutated.kernels.append(KernelCounters(name="extra"))
    again = build_trace(*ARGS)
    assert again.kernels == expected.kernels
    assert again.notes == expected.notes
    assert again.kernels[0] is not expected.kernels[0]


def test_cache_stays_within_its_bound(cold):
    for n in range(1, TRACE_CACHE_SIZE + 64):
        build_trace(n, n, 4, FULL, get_device())
    assert kernels._priced.cache_info().currsize == TRACE_CACHE_SIZE


def test_threads_share_the_memo(cold):
    shapes = [(1 << n, 1 << k, 4, FULL, get_device()) for n in (12, 16) for k in (3, 6)]
    expected = {shape: build_trace(*shape) for shape in shapes}
    kernels._priced.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            calls = [pool.submit(build_trace, *shape) for shape in shapes * 16]
            traces = [call.result(timeout=60) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    for shape, trace in zip(shapes * 16, traces):
        assert trace.kernels == expected[shape].kernels
        assert trace.notes == expected[shape].notes
    copies = {id(kernel) for trace in traces for kernel in trace.kernels}
    assert len(copies) == sum(len(trace.kernels) for trace in traces)
    assert kernels._priced.cache_info().currsize == len(shapes)
