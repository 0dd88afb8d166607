"""Experiment functions regenerating every figure of the evaluation.

Each ``figure_*`` function runs the relevant algorithms *functionally* at a
reduced input size (``functional_n``, default 2^18) while the execution
traces model the paper's full scale (2^29 keys / 250M tweets), and returns
a :class:`~repro.bench.report.Figure` whose series are simulated
milliseconds on the Titan X Maxwell profile.  ``REGISTRY`` maps figure ids
to functions; the pytest-benchmark files under ``benchmarks/`` are thin
wrappers around these.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.algorithms.base import TopKAlgorithm
from repro.algorithms.bucket_select import BucketSelectTopK
from repro.algorithms.per_thread import PerThreadTopK
from repro.algorithms.per_thread_registers import PerThreadRegisterTopK
from repro.algorithms.radix_select import RadixSelectTopK
from repro.algorithms.radix_sort import SortTopK
from repro.bench.report import Figure
from repro.bitonic.kernels import build_trace
from repro.bitonic.optimizations import ABLATION_LADDER, FULL, PAPER_LADDER_MS
from repro.bitonic.topk import BitonicTopK
from repro.costmodel.bitonic_model import BitonicModel
from repro.costmodel.radix_model import RadixSelectModel
from repro.cpu.bitonic_cpu import CpuBitonicTopK
from repro.cpu.pq_topk import HandPqTopK, StlPqTopK
from repro.data.distributions import (
    bucket_killer,
    increasing,
    decreasing,
    uniform_doubles,
    uniform_floats,
    uniform_uints,
)
from repro.data.records import make_batch
from repro.engine.session import Session
from repro.engine.twitter import generate_tweets, time_threshold_for_selectivity
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import memory_bandwidth_bound, trace_time

#: Default functional input size for the sweeps (the traces model 2^29).
DEFAULT_FUNCTIONAL_N = 1 << 18

#: The paper's primary evaluation scale.
PAPER_N = 1 << 29

#: k values of the Figure 11/12 sweeps.
K_SWEEP = tuple(1 << i for i in range(0, 11))


def _gpu_algorithms(device: DeviceSpec) -> list[TopKAlgorithm]:
    return [
        SortTopK(device),
        PerThreadTopK(device),
        RadixSelectTopK(device),
        BucketSelectTopK(device),
        BitonicTopK(device),
    ]


def _k_sweep_figure(
    figure: Figure,
    data: np.ndarray,
    device: DeviceSpec,
    model_n: int,
    ks: tuple[int, ...] = K_SWEEP,
) -> Figure:
    bandwidth = figure.add_series("memory-bandwidth")
    algorithms = _gpu_algorithms(device)
    series = {alg.name: figure.add_series(alg.name) for alg in algorithms}
    for k in ks:
        if k > len(data):
            continue
        bandwidth.add(k, memory_bandwidth_bound(model_n * data.dtype.itemsize, device) * 1e3)
        for algorithm in algorithms:
            if not algorithm.supports(model_n, k, data.dtype):
                continue
            result = algorithm.run(data, k, model_n=model_n)
            series[algorithm.name].add(k, result.simulated_ms(device))
    return figure


def figure_11a(
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 11a: runtime vs k, 2^29 uniform floats."""
    device = device or get_device()
    figure = Figure(
        "fig11a",
        "Performance with varying K (uniform floats, n = 2^29)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Bitonic wins for k <= 256; radix select wins beyond; sort flat "
            "~100 ms; per-thread rises steeply from k = 32 and fails past 256."
        ),
    )
    return _k_sweep_figure(figure, uniform_floats(functional_n, seed), device, PAPER_N)


def figure_11b(
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 11b: runtime vs k, 2^29 uniform uint32."""
    device = device or get_device()
    figure = Figure(
        "fig11b",
        "Performance with varying K (uniform uints, n = 2^29)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Same as 11a except radix select improves: uniform uints give "
            "the maximal 256x reduction per pass."
        ),
    )
    return _k_sweep_figure(figure, uniform_uints(functional_n, seed), device, PAPER_N)


def figure_11c(
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 11c: runtime vs k, 2^28 uniform doubles (same bytes as 11a)."""
    device = device or get_device()
    figure = Figure(
        "fig11c",
        "Performance with varying K (uniform doubles, n = 2^28)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Sort doubles its passes; per-thread fails past k = 128; bitonic "
            "largely unchanged (same total bytes)."
        ),
    )
    return _k_sweep_figure(
        figure, uniform_doubles(functional_n, seed), device, PAPER_N // 2
    )


def figure_12a(
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 12a: sorted-increasing floats."""
    device = device or get_device()
    figure = Figure(
        "fig12a",
        "Increasing distribution (sorted floats, n = 2^29)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Per-thread degrades up to 3x (every element inserts); sort and "
            "bitonic are unchanged."
        ),
    )
    return _k_sweep_figure(figure, increasing(functional_n, seed), device, PAPER_N)


def figure_12b(
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 12b: the bucket-killer adversarial distribution."""
    device = device or get_device()
    figure = Figure(
        "fig12b",
        "Bucket-killer distribution (n = 2^29)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Radix select degrades to sort's cost (one element eliminated "
            "per pass); bucket select slows ~2x; bitonic unchanged."
        ),
    )
    return _k_sweep_figure(figure, bucket_killer(functional_n, seed), device, PAPER_N)


def figure_13(
    device: DeviceSpec | None = None,
    seed: int = 0,
    size_exponents: tuple[int, ...] = tuple(range(21, 30)),
) -> Figure:
    """Figure 13: runtime vs data size at k = 64."""
    device = device or get_device()
    figure = Figure(
        "fig13",
        "Performance with varying data size (uniform floats, k = 64)",
        "n",
        "simulated ms",
        paper_expectation=(
            "Bitonic and sort grow linearly; selection methods flatten below "
            "2^24 where the constant prefix-sum cost dominates; per-thread "
            "shows an outward bulge at small n."
        ),
    )
    algorithms = _gpu_algorithms(device)
    series = {alg.name: figure.add_series(alg.name) for alg in algorithms}
    for exponent in size_exponents:
        model_n = 1 << exponent
        functional_n = min(model_n, max(1 << 14, model_n >> 9))
        data = uniform_floats(functional_n, seed)
        for algorithm in algorithms:
            result = algorithm.run(data, 64, model_n=model_n)
            series[algorithm.name].add(f"2^{exponent}", result.simulated_ms(device))
    return figure


def figure_14(
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 14: key+value configurations (KV, KKV, KKKV) at n = 2^28."""
    device = device or get_device()
    model_n = PAPER_N // 2
    figure = Figure(
        "fig14",
        "Key(s)+value tuples (n = 2^28)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Runtimes rise linearly from KV to KKKV with the row width; the "
            "bitonic/radix-select cutoff stays at the same k."
        ),
    )
    for num_keys, label in ((1, "KV"), (2, "KKV"), (3, "KKKV")):
        batch = make_batch(functional_n, num_keys=num_keys, seed=seed)
        rank = batch.composite_rank().astype(np.float32)
        bitonic_series = figure.add_series(f"bitonic-{label}")
        radix_series = figure.add_series(f"radix-select-{label}")
        for k in (16, 32, 64, 128, 256, 512):
            width = batch.row_bytes
            bitonic = BitonicTopK(device)
            result = bitonic.run(rank, k, model_n=model_n)
            # Rescale the trace to the full row width: every kernel moves
            # whole rows, not just the primary key.
            scaled = result.trace.scaled(width / rank.dtype.itemsize)
            bitonic_series.add(k, trace_time(scaled, device).total_ms)
            radix = RadixSelectTopK(device)
            radix_result = radix.run(rank, k, model_n=model_n)
            scaled = radix_result.trace.scaled(width / rank.dtype.itemsize)
            radix_series.add(k, trace_time(scaled, device).total_ms)
    return figure


def figure_15(
    sorted_input: bool,
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 15a (uniform) / 15b (sorted): CPU baselines vs GPU methods."""
    device = device or get_device()
    suffix = "b" if sorted_input else "a"
    name = "sorted ascending" if sorted_input else "uniform"
    figure = Figure(
        f"fig15{suffix}",
        f"CPU vs GPU top-k ({name} floats, n = 2^29)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Uniform: Hand PQ ~3x slower than GPU bitonic at k = 32; CPU "
            "bitonic far worse.  Sorted: GPU bitonic 60x faster than Hand PQ "
            "and 120x faster than STL PQ; CPU bitonic tracks Hand PQ."
            if not sorted_input
            else "Sorted: every element triggers a heap update; GPU bitonic "
            "is 60x (Hand PQ) / 120x (STL PQ) faster; CPU bitonic is close "
            "to Hand PQ despite more comparisons (SIMD)."
        ),
    )
    data = increasing(functional_n, seed) if sorted_input else uniform_floats(
        functional_n, seed
    )
    algorithms = [
        StlPqTopK(device),
        HandPqTopK(device),
        CpuBitonicTopK(device),
        BitonicTopK(device),
        RadixSelectTopK(device),
    ]
    series = {alg.name: figure.add_series(alg.name) for alg in algorithms}
    for k in (8, 16, 32, 64, 128, 256):
        for algorithm in algorithms:
            result = algorithm.run(data, k, model_n=PAPER_N)
            series[algorithm.name].add(k, result.simulated_ms(device))
    return figure


def figure_16a(
    functional_rows: int = 1 << 18,
    device: DeviceSpec | None = None,
    seed: int = 0,
    model_rows: int = 250_000_000,
) -> Figure:
    """Figure 16a: query 1 (time filter + top-50) across selectivities."""
    device = device or get_device()
    figure = Figure(
        "fig16a",
        "MapD query 1: filter selectivity sweep (250M tweets, LIMIT 50)",
        "selectivity",
        "simulated ms",
        paper_expectation=(
            "Filter+Sort worst and growing with selectivity; bitonic top-k "
            "methods win; fusing filter into the SortReducer saves ~30% of "
            "kernel time at selectivity 1."
        ),
    )
    session = Session(device)
    session.register(generate_tweets(functional_rows, seed))
    names = {"sort": "Filter+Sort", "topk": "Filter+BitonicTopK", "fused": "Combined"}
    series = {strategy: figure.add_series(label) for strategy, label in names.items()}
    for tenths in range(0, 11):
        selectivity = tenths / 10.0
        threshold = time_threshold_for_selectivity(selectivity)
        sql = (
            f"SELECT id FROM tweets WHERE tweet_time < {threshold} "
            "ORDER BY retweet_count DESC LIMIT 50"
        )
        for strategy in names:
            result = session.sql(sql, strategy=strategy, model_rows=model_rows)
            series[strategy].add(selectivity, result.simulated_ms())
    return figure


def figure_16b(
    functional_rows: int = 1 << 18,
    device: DeviceSpec | None = None,
    seed: int = 0,
    model_rows: int = 250_000_000,
) -> Figure:
    """Figure 16b: query 2 (custom ranking function) across K."""
    device = device or get_device()
    figure = Figure(
        "fig16b",
        "MapD query 2: custom ranking function (250M tweets)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Project+Sort worst; computing the ranking function inside the "
            "SortReducer (Combined) beats Project+BitonicTopK by the cost of "
            "writing and re-reading the projected rank column (~10 ms)."
        ),
    )
    session = Session(device)
    session.register(generate_tweets(functional_rows, seed))
    names = {"sort": "Project+Sort", "topk": "Project+BitonicTopK", "fused": "Combined"}
    series = {strategy: figure.add_series(label) for strategy, label in names.items()}
    for k in (16, 32, 64, 128, 256):
        sql = (
            "SELECT id FROM tweets "
            f"ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {k}"
        )
        for strategy in names:
            result = session.sql(sql, strategy=strategy, model_rows=model_rows)
            series[strategy].add(k, result.simulated_ms())
    return figure


def query_3(
    functional_rows: int = 1 << 18,
    device: DeviceSpec | None = None,
    seed: int = 0,
    model_rows: int = 250_000_000,
) -> Figure:
    """Section 6.8 query 3: language filter (selectivity ~0.8) across K."""
    device = device or get_device()
    figure = Figure(
        "q3",
        "MapD query 3: lang = en OR es filter (selectivity ~0.8)",
        "k",
        "simulated ms",
        paper_expectation=(
            "Same trend as query 1 at a fixed ~80% selectivity; the combined "
            "kernel saves the filtered (id, retweet_count) round trip "
            "(~16 ms) across all K."
        ),
    )
    session = Session(device)
    session.register(generate_tweets(functional_rows, seed))
    names = {"sort": "Filter+Sort", "topk": "Filter+BitonicTopK", "fused": "Combined"}
    series = {strategy: figure.add_series(label) for strategy, label in names.items()}
    for k in (16, 32, 64, 128, 256):
        sql = (
            "SELECT id FROM tweets WHERE lang = 'en' OR lang = 'es' "
            f"ORDER BY retweet_count DESC LIMIT {k}"
        )
        for strategy in names:
            result = session.sql(sql, strategy=strategy, model_rows=model_rows)
            series[strategy].add(k, result.simulated_ms())
    return figure


def query_4(
    functional_rows: int = 1 << 18,
    device: DeviceSpec | None = None,
    seed: int = 0,
    model_rows: int = 250_000_000,
) -> Figure:
    """Section 6.8 query 4: top-50 users by tweet count (GROUP BY)."""
    device = device or get_device()
    figure = Figure(
        "q4",
        "MapD query 4: GROUP BY uid, top-50 by count (57M users scaled)",
        "strategy",
        "simulated ms",
        paper_expectation=(
            "The group-by dominates; replacing the sort step with bitonic "
            "top-k removes most of the sort's 44 ms share (39% of the 97 ms "
            "total in MapD)."
        ),
    )
    session = Session(device)
    session.register(generate_tweets(functional_rows, seed))
    sql = (
        "SELECT uid, COUNT() AS num_tweets FROM tweets "
        "GROUP BY uid ORDER BY num_tweets DESC LIMIT 50"
    )
    series = figure.add_series("simulated-ms")
    breakdown = figure.add_series("topk-step-share")
    for strategy, label in (("sort", "GroupBy+Sort"), ("topk", "GroupBy+BitonicTopK")):
        result = session.sql(sql, strategy=strategy, model_rows=model_rows)
        total = result.simulated_ms()
        series.add(label, total)
        by_kernel = result.simulated_time().by_kernel()
        topk_ms = sum(
            ms
            for name, ms in by_kernel.items()
            if "sort" in name.lower() or "Reducer" in name
        )
        breakdown.add(label, topk_ms * 1e3)
    return figure


def figure_08(
    device: DeviceSpec | None = None,
) -> Figure:
    """Figure 8: elements-per-thread (B) sweep for top-32."""
    device = device or get_device()
    figure = Figure(
        "fig08",
        "Varying elements per thread (top-32, 2^29 floats)",
        "B",
        "simulated ms",
        paper_expectation=(
            "Throughput improves up to B = 16, is flat to B = 32, and "
            "degrades at B = 64 where register/shared pressure cuts occupancy."
        ),
    )
    series = figure.add_series("bitonic")
    for elements in (2, 4, 8, 16, 32, 64):
        flags = FULL.with_elements_per_thread(elements)
        trace = build_trace(PAPER_N, 32, 4, flags, device)
        series.add(elements, trace_time(trace, device).total_ms)
    return figure


def ablation_43(
    device: DeviceSpec | None = None,
) -> Figure:
    """The Section 4.3 optimization ladder for top-32 over 2^29 floats."""
    device = device or get_device()
    figure = Figure(
        "abl43",
        "Optimization ablation ladder (top-32, 2^29 floats)",
        "configuration",
        "simulated ms",
        paper_expectation=(
            "521 -> 122 -> 48.15 -> 33.7 -> 22.3 -> 17.8 -> 16 -> 15.4 ms"
        ),
    )
    model = figure.add_series("model")
    paper = figure.add_series("paper")
    for (name, flags), paper_ms in zip(ABLATION_LADDER, PAPER_LADDER_MS):
        trace = build_trace(PAPER_N, 32, 4, flags, device)
        model.add(name, trace_time(trace, device).total_ms)
        paper.add(name, paper_ms)
    return figure


def figure_17(
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 17: cost-model predictions vs measured (simulated) times."""
    device = device or get_device()
    figure = Figure(
        "fig17",
        "Cost model validation (2^29 uniform floats)",
        "k",
        "ms",
        paper_expectation=(
            "Predictions track the measurements, keep the same crossover, "
            "and underestimate slightly (peak-bandwidth assumption)."
        ),
    )
    data = uniform_floats(functional_n, seed)
    bitonic_measured = figure.add_series("bitonic-measured")
    bitonic_predicted = figure.add_series("bitonic-predicted")
    radix_measured = figure.add_series("radix-measured")
    radix_predicted = figure.add_series("radix-predicted")
    bitonic_model = BitonicModel(device)
    radix_model = RadixSelectModel(device)
    for k in (8, 16, 32, 64, 128, 256, 512, 1024):
        bitonic_measured.add(
            k, BitonicTopK(device).run(data, k, model_n=PAPER_N).simulated_ms(device)
        )
        bitonic_predicted.add(k, bitonic_model.predict_ms(PAPER_N, k))
        radix_measured.add(
            k,
            RadixSelectTopK(device).run(data, k, model_n=PAPER_N).simulated_ms(device),
        )
        radix_predicted.add(k, radix_model.predict_ms(PAPER_N, k))
    return figure


def figure_18(
    functional_n: int = DEFAULT_FUNCTIONAL_N,
    device: DeviceSpec | None = None,
    seed: int = 0,
) -> Figure:
    """Figure 18 (Appendix A): register vs shared-memory per-thread top-k."""
    device = device or get_device()
    figure = Figure(
        "fig18",
        "Per-thread top-k: registers vs shared memory (2^29 floats)",
        "k",
        "simulated ms",
        paper_expectation=(
            "The register variant wins slightly at small k but collapses "
            "past k = 32 when the buffer spills to local memory; the gap "
            "widens on increasing input (list updates cost k, heap log k) "
            "and closes on decreasing input (no updates)."
        ),
    )
    generators = {
        "uniform": uniform_floats,
        "increasing": increasing,
        "decreasing": decreasing,
    }
    for label, generator in generators.items():
        data = generator(functional_n, seed)
        shared_series = figure.add_series(f"shared-{label}")
        register_series = figure.add_series(f"registers-{label}")
        for k in (8, 16, 32, 64, 128, 256):
            shared = PerThreadTopK(device).run(data, k, model_n=PAPER_N)
            shared_series.add(k, shared.simulated_ms(device))
            registers = PerThreadRegisterTopK(device).run(data, k, model_n=PAPER_N)
            register_series.add(k, registers.simulated_ms(device))
    return figure


#: Figure id -> experiment function (defaults applied; ``device`` is the
#: one keyword every entry takes).
REGISTRY: dict[str, Callable[..., Figure]] = {
    "fig08": figure_08,
    "abl43": ablation_43,
    "fig11a": figure_11a,
    "fig11b": figure_11b,
    "fig11c": figure_11c,
    "fig12a": figure_12a,
    "fig12b": figure_12b,
    "fig13": figure_13,
    "fig14": figure_14,
    "fig15a": lambda device=None: figure_15(sorted_input=False, device=device),
    "fig15b": lambda device=None: figure_15(sorted_input=True, device=device),
    "fig16a": figure_16a,
    "fig16b": figure_16b,
    "q3": query_3,
    "q4": query_4,
    "fig17": figure_17,
    "fig18": figure_18,
}


def run_figure(figure_id: str) -> Figure:
    """Run one registered experiment by id."""
    return REGISTRY[figure_id]()
