"""Ragged tiles: serving requests batch across n, k and 32-bit dtypes.

Bitonic-planned requests share one ``(rows, width)`` tile when their rows
pad to the same power-of-two width and share a key layout.  Every rider of
a fused launch must get exactly the oracle's rows, bit for bit, and exactly
what it would have got running alone.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.base import reference_topk
from repro.core.batched import RaggedRows, batched_topk
from repro.core.planner import PlanChoice
from repro.errors import InvalidParameterError
from repro.gpu import faults
from repro.gpu.device import get_device
from repro.serving import CrossQueryBatcher, ServingRequest, network_k
from repro.serving.batcher import launch_price_ms

DEVICE = get_device("titan-x-maxwell")


def _bitonic(request):
    request.plan = PlanChoice(
        algorithm="bitonic",
        predicted_seconds=1e-3,
        candidates=(("bitonic", 1e-3),),
    )
    return request


def _row(generator, dtype, n, ties):
    """A row with heavy ties, and for floats NaN, +-inf and -0.0."""
    if np.dtype(dtype).kind == "f":
        pool = np.array([np.nan, -np.inf, -0.0, 0.0, 1.5, -2.5, np.inf], dtype)
        if ties:
            return generator.choice(pool, n)
        row = generator.standard_normal(n).astype(dtype)
        special = generator.random(n) < 0.2
        row[special] = generator.choice(pool, int(special.sum()))
        return row
    if ties:
        return generator.integers(0, 3, n, endpoint=True).astype(dtype)
    info = np.iinfo(dtype)
    return generator.integers(info.min, info.max, n, endpoint=True).astype(dtype)


def _bits(array):
    return array.view(f"u{array.itemsize}")


def _assert_same(outcome, values, indices):
    assert outcome.values.dtype == values.dtype
    assert np.array_equal(_bits(outcome.values), _bits(values))
    assert np.array_equal(outcome.indices, indices)


@st.composite
def tiles(draw):
    """Two to six riders whose rows all pad to one width, each with its
    own n, dtype and k (1, n, or anything between)."""
    width = 1 << draw(st.integers(min_value=1, max_value=10))
    riders = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        n = draw(st.integers(min_value=width // 2 + 1, max_value=width))
        dtype = draw(st.sampled_from([np.float32, np.int32, np.uint32]))
        k = draw(
            st.one_of(st.just(1), st.just(n), st.integers(min_value=1, max_value=n))
        )
        riders.append((n, dtype, k, draw(st.booleans())))
    return riders, draw(st.integers(min_value=0, max_value=2**31))


@given(tile=tiles())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_rider_gets_the_oracle_and_its_single_answer(tile):
    riders, seed = tile
    generator = np.random.default_rng(seed)
    batcher = CrossQueryBatcher(device=DEVICE)
    requests = [
        _bitonic(ServingRequest(data=_row(generator, dtype, n, ties), k=k))
        for n, dtype, k, ties in riders
    ]
    assert len({request.key for request in requests}) == 1
    outcomes = batcher.execute(requests)
    assert batcher.batches == 1 and batcher.batched_queries == len(requests)
    for request, outcome in zip(requests, outcomes):
        assert outcome.batched and outcome.batch_size == len(requests)
        _assert_same(outcome, *reference_topk(request.data, request.k))
        single = batcher._execute_single(request)
        _assert_same(outcome, single.values, single.indices)


class TestTileKey:
    def test_n_k_and_32_bit_dtype_leave_the_key(self, rng):
        requests = [
            _bitonic(ServingRequest(data=rng.random(n).astype(dtype), k=k))
            for n, dtype, k in (
                (300, np.float32, 1),
                (512, np.int32, 64),
                (257, np.uint32, 257),
            )
        ]
        (group,) = CrossQueryBatcher(device=DEVICE).group(requests)
        assert group == requests

    def test_a_64_bit_row_never_shares_a_tile_with_packed_rows(self, rng):
        packed = _bitonic(ServingRequest(data=rng.random(512).astype(np.float32), k=8))
        wide = _bitonic(ServingRequest(data=rng.random(512), k=8))
        assert packed.key.layout == "packed"
        assert wide.key.layout == "codes+column"
        groups = CrossQueryBatcher(device=DEVICE).group([packed, wide, packed])
        assert [len(group) for group in groups] == [2, 1]
        with pytest.raises(InvalidParameterError):
            batched_topk(RaggedRows((packed.data, wide.data)), [8, 8])

    def test_64_bit_rows_share_a_tile_among_themselves(self, rng):
        requests = [
            _bitonic(ServingRequest(data=data, k=5))
            for data in (
                rng.standard_normal(700),
                rng.integers(-9, 9, 1000).astype(np.int64),
                rng.integers(0, 9, 600).astype(np.uint64),
            )
        ]
        (group,) = CrossQueryBatcher(device=DEVICE).group(requests)
        batcher = CrossQueryBatcher(device=DEVICE)
        for request, outcome in zip(group, batcher.execute(group)):
            assert outcome.batched
            _assert_same(outcome, *reference_topk(request.data, request.k))

    def test_radix_riders_keep_exact_n_dtype_and_network_k(self, rng):
        def radik(data, k):
            request = ServingRequest(data=data, k=k)
            request.plan = PlanChoice(
                algorithm="radik",
                predicted_seconds=1e-3,
                candidates=(("radik", 1e-3),),
            )
            return request

        same = radik(rng.random(512).astype(np.float32), 8)
        same_network = radik(rng.random(512).astype(np.float32), 5)
        other_network = radik(rng.random(512).astype(np.float32), 9)
        other_n = radik(rng.random(500).astype(np.float32), 8)
        other_dtype = radik(rng.integers(0, 9, 512).astype(np.int32), 8)
        assert same.key == same_network.key
        for other in (other_network, other_n, other_dtype):
            assert same.key != other.key
        groups = CrossQueryBatcher(device=DEVICE).group(
            [same, other_network, same_network]
        )
        assert groups == [[same, same_network], [other_network]]


class TestSplitRule:
    """A bucket whose riders need different network widths is split by
    ``network_k`` only when the split launches price cheaper."""

    WIDTH = 1 << 16

    def _bucket(self, rng, small_riders):
        data = rng.random(self.WIDTH).astype(np.float32)
        requests = [
            _bitonic(ServingRequest(data=data, k=8)) for _ in range(small_riders)
        ]
        requests.append(_bitonic(ServingRequest(data=data, k=1024)))
        return requests

    def test_a_few_small_k_riders_fuse_with_a_large_k_rider(self, rng):
        requests = self._bucket(rng, 2)
        groups = CrossQueryBatcher(device=DEVICE).group(requests)
        assert groups == [requests]

    def test_many_small_k_riders_split_from_a_large_k_rider(self, rng):
        requests = self._bucket(rng, 32)
        groups = CrossQueryBatcher(device=DEVICE).group(requests)
        assert [len(group) for group in groups] == [32, 1]
        for group in groups:
            assert len({network_k(request.k) for request in group}) == 1

    def test_prices_are_memoized(self, rng):
        batcher = CrossQueryBatcher(device=DEVICE)
        batcher.group(self._bucket(rng, 3))
        before = launch_price_ms.cache_info()
        batcher.group(self._bucket(rng, 3))
        after = launch_price_ms.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits


def test_a_faulted_ragged_launch_falls_back_per_query(rng):
    batcher = CrossQueryBatcher(device=DEVICE)
    requests = [
        _bitonic(ServingRequest(data=data, k=k))
        for data, k in (
            (rng.standard_normal(300).astype(np.float32), 7),
            (rng.integers(-5, 5, 512).astype(np.int32), 40),
            (rng.integers(0, 5, 400).astype(np.uint32), 1),
        )
    ]
    requests[0].injector = faults.FaultInjector(
        seed=0,
        plans=[faults.FaultPlan(site="kernel-launch", fault="device-lost", nth=1)],
    )
    outcomes = batcher.execute(requests)
    assert batcher.batch_fallbacks == 1
    assert batcher.fallback_queries == len(requests)
    for request, outcome in zip(requests, outcomes):
        assert outcome.fell_back and not outcome.batched
        _assert_same(outcome, *reference_topk(request.data, request.k))


def test_a_fault_on_a_mixed_k_fused_launch_falls_back_per_query(rng):
    # The serving chaos trial's shapes at n = 512, k = 8: the k = 4 rider
    # fuses with the three k = 8 riders of the 512-wide tile, and the two
    # 256-row riders share their own tile.  A device-lost fault on the
    # mixed-k launch must still answer every rider with the oracle's rows.
    shapes = [(512, 8), (512, 8), (256, 8), (256, 8), (512, 4), (512, 8)]
    requests = [
        _bitonic(ServingRequest(data=rng.standard_normal(n).astype(np.float32), k=k))
        for n, k in shapes
    ]
    batcher = CrossQueryBatcher(device=DEVICE)
    mixed, half = batcher.group(requests)
    assert sorted(request.k for request in mixed) == [4, 8, 8, 8]
    assert [len(request.data) for request in half] == [256, 256]
    mixed[0].injector = faults.FaultInjector(
        seed=0,
        plans=[faults.FaultPlan(site="kernel-launch", fault="device-lost", nth=1)],
    )
    outcomes = batcher.execute(mixed) + batcher.execute(half)
    assert mixed[0].injector.num_injections == 1
    assert batcher.batch_fallbacks == 1 and batcher.batches == 1
    for row, (request, outcome) in enumerate(zip(mixed + half, outcomes)):
        assert outcome.fell_back == (row < len(mixed))
        _assert_same(outcome, *reference_topk(request.data, request.k))
