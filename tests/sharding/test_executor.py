"""The scatter-gather executor: bit-equality to the single-device
reference across the property matrix, trace accounting, scaling, and
observability."""

import numpy as np
import pytest

from repro import observability as obs
from repro.algorithms.base import reference_topk
from repro.bitonic.topk import BitonicTopK
from repro.cpu.pq_topk import HandPqTopK
from repro.cpu.spec import I7_6900
from repro.errors import InvalidParameterError
from repro.gpu.device import get_device
from repro.gpu.timing import trace_time
from repro.sharding import ShardedTopK, partition_ranges
from repro.sharding.executor import (
    CONCURRENT_KERNEL,
    GATHER_KERNEL,
    MERGE_KERNEL,
    REDISTRIBUTE_KERNEL,
)


def assert_exact(data, k, shards, device, model_n=None):
    result = ShardedTopK(device, shards=shards).run(data, k, model_n=model_n)
    values, indices = reference_topk(data, k)
    np.testing.assert_array_equal(result.values, values)
    np.testing.assert_array_equal(result.indices, indices)
    return result


class TestBitEquality:
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint64]
    )
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    def test_dtype_matrix(self, rng, device, dtype, shards):
        if np.dtype(dtype).kind == "f":
            data = rng.random(4096).astype(dtype)
        else:
            data = rng.integers(0, 1 << 30, size=4096).astype(dtype)
        assert_exact(data, 64, shards, device)

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_duplicate_heavy_input(self, rng, device, shards):
        # Only 5 distinct values over 4096 rows: ties everywhere, so the
        # answer is decided almost entirely by index tie-breaking.
        data = rng.integers(0, 5, size=4096).astype(np.int32)
        assert_exact(data, 128, shards, device)

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_nan_and_inf_payload(self, rng, device, shards):
        data = rng.random(4096).astype(np.float32)
        data[::7] = np.nan
        data[::11] = np.inf
        data[::13] = -np.inf
        assert_exact(data, 96, shards, device)

    @pytest.mark.parametrize("k", [4095, 4096])
    def test_k_near_n(self, rng, device, k):
        data = rng.random(4096).astype(np.float32)
        assert_exact(data, k, 4, device)

    def test_k_larger_than_per_shard_rows(self, rng, device):
        # k = 90 against 100/8 = 12-or-13-row shards: every shard must
        # surrender its entire slice as candidates.
        data = rng.random(100).astype(np.float32)
        assert_exact(data, 90, 8, device)

    def test_more_shards_than_rows_degrades_gracefully(self, rng, device):
        data = rng.random(5).astype(np.float32)
        result = assert_exact(data, 3, 8, device)
        assert result.trace.notes["sharding.shards"] == 5.0

    def test_winners_in_one_shard(self, rng, device):
        data = rng.random(10000).astype(np.float32)
        data[:30] += 10.0
        result = assert_exact(data, 30, 2, device)
        assert (result.indices < 30).all()

    def test_matches_the_unsharded_executor(self, rng, device):
        data = rng.random(8192).astype(np.float32)
        single = ShardedTopK(device, shards=1).run(data, 32)
        sharded = ShardedTopK(device, shards=4).run(data, 32)
        np.testing.assert_array_equal(single.values, sharded.values)
        np.testing.assert_array_equal(single.indices, sharded.indices)


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -2, True, 2.5])
    def test_bad_shard_counts_raise(self, device, bad):
        with pytest.raises(InvalidParameterError):
            ShardedTopK(device, shards=bad)

    def test_empty_device_group_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShardedTopK(devices=[])


class TestTraceAccounting:
    def test_fault_free_kernel_sequence(self, rng, device):
        result = ShardedTopK(device, shards=4).run(
            rng.random(4096).astype(np.float32), 32
        )
        names = [kernel.name for kernel in result.trace.kernels]
        assert names == [CONCURRENT_KERNEL, GATHER_KERNEL, MERGE_KERNEL]
        assert REDISTRIBUTE_KERNEL not in names
        assert result.trace.notes["sharding.shards"] == 4.0
        assert result.trace.notes["sharding.shards_lost"] == 0.0
        assert result.trace.notes["sharding.redistributed"] == 0.0
        assert result.trace.notes["sharding.max_shard_ms"] > 0.0

    def test_simulated_time_improves_with_shards(self, rng, device):
        # The headline property: at modeled scale the concurrent phase is
        # bounded by the slowest shard, so more shards -> less time.
        data = rng.random(1 << 16).astype(np.float32)
        times = [
            trace_time(
                ShardedTopK(device, shards=shards)
                .run(data, 256, model_n=1 << 26)
                .trace,
                device,
            ).total
            for shards in (1, 2, 4)
        ]
        assert times[0] > times[1] > times[2]

    def test_gather_bytes_scale_with_candidates(self, rng, device):
        data = rng.random(4096).astype(np.float32)
        result = ShardedTopK(device, shards=4).run(data, 64)
        gather = result.trace.kernels[1]
        # 4 shards x 64 candidates x (4 value bytes + 4 row-id bytes).
        assert gather.fixed_seconds == pytest.approx(
            4 * 64 * 8 / device.pcie_bandwidth
        )


class TestObservability:
    def test_per_shard_spans_and_metrics(self, rng, device):
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            ShardedTopK(device, shards=4).run(rng.random(4096).astype(np.float32), 32)
        shard_spans = observation.tracer.spans("shard")
        assert [span.name for span in shard_spans] == [
            "shard:0", "shard:1", "shard:2", "shard:3"
        ]
        assert sum(span.attributes["rows"] for span in shard_spans) == 4096
        assert observation.metrics.value("sharding.shards") == 4.0
        assert observation.metrics.value("sharding.shards_executed") == 4.0

    def test_shard_spans_nest_under_the_algorithm_span(self, rng, device):
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            ShardedTopK(device, shards=2).run(rng.random(1024).astype(np.float32), 16)
        algorithm = [
            span
            for span in observation.tracer.spans("algorithm")
            if span.name == "algorithm:sharded"
        ]
        assert len(algorithm) == 1

    def test_accounts_each_kernel_once(self, rng):
        # Per-shard inner kernels appear only as shard spans; the kernel
        # spans are the coordinator's trace, priced on devices[0].
        group = [get_device("v100"), get_device("titan-x-maxwell")]
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            result = ShardedTopK(devices=group).run(
                rng.random(1 << 13).astype(np.float32), 32
            )
        assert observation.tracer.total_sim_ms("kernel") == pytest.approx(
            result.simulated_ms(group[0]), rel=1e-9
        )


#: A model size where the concurrent phase dominates the trace.
MODEL_N = 1 << 29


#: The hybrid CPU+GPU group: the GPU coordinates, the CPU takes a shard.
CPU_GPU = [get_device("titan-x-maxwell"), I7_6900]


def shard_spans(devices, data, k=64, inner=None):
    """(result, [(rows, simulated_ms) per shard]) for one observed run."""
    observation = obs.Observation(obs.Tracer(), None)
    with observation.activate():
        result = ShardedTopK(devices=devices, inner=inner).run(data, k, model_n=MODEL_N)
    spans = [
        (span.attributes["rows"], span.attributes["simulated_ms"])
        for span in observation.tracer.spans("shard")
    ]
    return result, spans


class TestDeviceGroups:
    @pytest.mark.parametrize(
        "group, n, k",
        [
            ([get_device("v100")], 30000, 64),
            ([get_device("v100"), get_device("titan-x-maxwell")], 30000, 64),
            ([get_device("v100"), get_device("titan-x-maxwell")] * 2, 30000, 64),
            (CPU_GPU, 30000, 64),
            (CPU_GPU, 10, 2),
            (CPU_GPU, 1000, 32),
            (CPU_GPU, 50000, 300),
        ],
        ids=["1", "2", "4", "cpu-gpu", "cpu-gpu-10", "cpu-gpu-1000", "cpu-gpu-50000"],
    )
    def test_group_matches_reference(self, rng, group, n, k):
        data = rng.random(n).astype(np.float32)
        result = ShardedTopK(devices=group).run(data, k)
        values, indices = reference_topk(data, k)
        np.testing.assert_array_equal(result.values, values)
        np.testing.assert_array_equal(result.indices, indices)

    def test_winners_on_the_cpu_shard_survive(self, rng):
        """The global top-k landing entirely in the CPU's range must
        surface through the merge."""
        data = rng.random(10000).astype(np.float32)
        data[-50:] += 5.0  # the tail belongs to the CPU shard
        result = ShardedTopK(devices=CPU_GPU, inner="bitonic").run(data, 50)
        assert (result.indices >= 9950).all()

    @pytest.mark.parametrize("k", [32, 1000])
    def test_cpu_gpu_ties_and_nan_take_the_oracles_rows(self, rng, k):
        # Duplicates on both sides of the split go to the lower row; NaN
        # ranks last.
        data = rng.integers(0, 4, 10000).astype(np.float32)
        data[rng.choice(10000, 9500, replace=False)] = np.nan
        result = ShardedTopK(devices=CPU_GPU, inner="bitonic").run(data, k)
        values, indices = reference_topk(data, k)
        np.testing.assert_array_equal(result.indices, indices)
        np.testing.assert_array_equal(result.values, values)

    def test_cpu_gpu_group_prices_the_kernels_it_runs(self, rng, device):
        """The concurrent phase is the slower shard's own trace, so the
        group never reports less than its GPU shard costs, and the split
        still beats either device alone."""
        data = rng.random(1 << 16).astype(np.float32)
        result, spans = shard_spans(CPU_GPU, data, inner="bitonic")
        (gpu_rows, _), (cpu_rows, _) = spans
        assert gpu_rows > cpu_rows
        gpu_shard = BitonicTopK(device).run(
            data[:gpu_rows], 64, model_n=round(MODEL_N * gpu_rows / len(data))
        )
        cpu_shard = HandPqTopK(device, I7_6900).run(
            data[gpu_rows:], 64, model_n=round(MODEL_N * cpu_rows / len(data))
        )
        # The CPU shard is priced on the coordinator, devices[0].
        gpu_seconds = trace_time(gpu_shard.trace, device).total
        cpu_seconds = trace_time(cpu_shard.trace, device).total
        (concurrent,) = [
            kernel
            for kernel in result.trace.kernels
            if kernel.name == CONCURRENT_KERNEL
        ]
        assert concurrent.fixed_seconds == max(gpu_seconds, cpu_seconds)
        assert result.simulated_ms() >= gpu_seconds * 1e3
        gpu_only = BitonicTopK(device).run(data, 64, model_n=MODEL_N)
        cpu_only = HandPqTopK(device, I7_6900).run(data, 64, model_n=MODEL_N)
        assert result.simulated_ms() < gpu_only.simulated_ms()
        assert result.simulated_ms() < cpu_only.simulated_ms()

    def test_identical_devices_take_the_balanced_split(self, rng, device):
        data = rng.random(1 << 12).astype(np.float32)
        grouped = ShardedTopK(devices=[device] * 3).run(data, 8)
        counted = ShardedTopK(device, shards=3).run(data, 8)
        np.testing.assert_array_equal(grouped.indices, counted.indices)
        assert [k.name for k in grouped.trace.kernels] == [
            k.name for k in counted.trace.kernels
        ]
        assert grouped.simulated_ms() == counted.simulated_ms()

    def test_trace_records_the_group_split(self, rng, device):
        data = rng.random(4096).astype(np.float32)
        result, spans = shard_spans([device, device], data, k=8)
        assert result.trace.notes["sharding.shards"] == 2.0
        assert [rows for rows, _ in spans] == [2048, 2048]

    def test_two_devices_nearly_halve_the_time(self, rng, device):
        data = rng.random(1 << 16).astype(np.float32)
        single, _ = shard_spans([device], data)
        double, _ = shard_spans([device, device], data)
        speedup = single.simulated_ms() / double.simulated_ms()
        assert 1.7 < speedup <= 2.05

    def test_heterogeneous_split_favors_the_faster_card(self, rng):
        volta = get_device("v100")
        titan = get_device("titan-x-maxwell")
        data = rng.random(1 << 16).astype(np.float32)
        _, spans = shard_spans([volta, titan], data)
        (volta_rows, volta_ms), (titan_rows, titan_ms) = spans
        assert volta_rows > titan_rows
        # Throughput-proportional ranges equalize finish times.
        assert volta_ms == pytest.approx(titan_ms, rel=0.10)

    def test_adding_a_slow_card_still_helps(self, rng):
        """A slower card takes a small range instead of stalling the
        fast one."""
        volta = get_device("v100")
        data = rng.random(1 << 16).astype(np.float32)
        alone, _ = shard_spans([volta], data)
        mixed, _ = shard_spans([volta, get_device("titan-x-maxwell")], data)
        assert mixed.simulated_ms(volta) < alone.simulated_ms(volta)


class TestInnerResolution:
    def test_pinned_inner_that_cannot_support_is_replanned(self, rng, device):
        # bitonic caps k at 2048; a pinned-bitonic instance with a larger
        # local k must silently route to a feasible kernel instead.
        data = rng.random(8192).astype(np.float32)
        assert_exact(data, 5000, 2, device)

    def test_partition_ranges_match_the_trace_shards(self, rng, device):
        data = rng.random(1000).astype(np.float32)
        result = ShardedTopK(device, shards=3).run(data, 10)
        assert result.trace.notes["sharding.shards"] == float(
            len(partition_ranges(1000, 3))
        )
