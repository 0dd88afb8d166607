"""The window's code ring and the per-shape tick pricing memo.

A derandomized search drives an incremental window beside the recompute
oracle over ragged chunks (empty, shorter than k, longer) of NaN, -0.0,
+0.0, infinities and heavily tied values, through warm-up, eviction, a
mid-window degrade and a reopen: every tick must be bit-equal.  The memo
tests check that a tick records and charges what its trace, rebuilt from
scratch, would; that a ``TickResult.trace`` belongs to its caller; and
that a steady-state tick does only its own chunk's work.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.algorithms import keys
from repro.bitonic.kernels import build_trace
from repro.costmodel.streaming_model import CANDIDATE_BYTES
from repro.gpu import faults
from repro.gpu.counters import ExecutionTrace
from repro.gpu.timing import trace_time
from repro.observability.instrument import record_trace
from repro.plan import network_k
from repro.streaming import subscription as subscription_module
from repro.streaming import window as window_module
from repro.streaming.subscription import Subscription
from repro.streaming.window import StreamChunk, WindowTopK

SPECIALS = (np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.0)


def assert_bit_equal(got, expected, tick):
    for name, mine, theirs in zip(("values", "gids"), got, expected):
        assert mine.dtype == theirs.dtype, f"{name} dtype diverged at tick {tick}"
        assert mine.tobytes() == theirs.tobytes(), f"{name} diverged at tick {tick}"


@st.composite
def streams(draw):
    k = draw(st.sampled_from([1, 3, 64, 100]))
    ticks = draw(st.integers(1, 10))
    sizes = draw(st.lists(st.integers(0, k + 9), min_size=ticks, max_size=ticks))
    # A small pool of values makes ties heavy; specials ride in it.
    finite = st.floats(-4, 4, width=32)
    pool = draw(st.lists(st.sampled_from(SPECIALS) | finite, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chunks = []
    next_gid = 0
    for size in sizes:
        values = rng.choice(np.array(pool, dtype=np.float32), size=size)
        gids = np.arange(next_gid, next_gid + size, dtype=np.int64)
        next_gid += size
        chunks.append(StreamChunk(values=values, gids=gids))
    return {
        "k": k,
        "window_chunks": draw(st.integers(1, 4)),
        "shards": draw(st.integers(1, 4)),
        "chunks": chunks,
        "degrade_at": draw(st.none() | st.integers(0, ticks - 1)),
        "reopen_at": draw(st.none() | st.integers(1, ticks)),
    }


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(streams())
def test_ring_ticks_bit_equal_recompute(stream):
    shared = dict(chunk_rows=16, shards=stream["shards"])
    degrade_at = stream["degrade_at"]
    mode = "incremental" if degrade_at is None else "recompute"
    ring = WindowTopK(stream["k"], stream["window_chunks"], mode=mode, **shared)
    oracle = WindowTopK(
        stream["k"], stream["window_chunks"], mode="recompute", **shared
    )
    ring.open()
    oracle.open()
    for tick, chunk in enumerate(stream["chunks"]):
        if tick == stream["reopen_at"]:
            for maintainer in (ring, oracle):
                maintainer.close()
                maintainer.open()
        ring.advance(chunk)
        oracle.advance(chunk)
        if tick == degrade_at:
            assert ring.degrade_to_incremental()
        assert_bit_equal(ring.emit(), oracle.emit(), tick)
    assert ring.mode == "incremental"
    ring.close()
    oracle.close()


@pytest.mark.parametrize(
    "dtypes",
    [
        ("float32", "float64", "float32", "float32", "float32"),
        ("float32", "float32", "empty-float64", "float32", "float32"),
        ("float64", "float32", "float32", "float32", "float32"),
        ("int64", "float32", "int64", "int64", "int64"),
    ],
)
def test_mixed_dtypes_promote_as_recompute(rng, dtypes):
    # A window mixing dtypes answers in the promoted dtype while the odd
    # chunk is live, and in the ring's again once it is evicted.
    ring = WindowTopK(4, 2, 8, mode="incremental")
    oracle = WindowTopK(4, 2, 8, mode="recompute")
    ring.open()
    oracle.open()
    next_gid = 0
    for tick, dtype in enumerate(dtypes):
        if dtype == "empty-float64":
            values = np.empty(0, dtype=np.float64)
        else:
            values = (rng.standard_normal(8) * 100).astype(dtype)
        gids = np.arange(next_gid, next_gid + len(values), dtype=np.int64)
        next_gid += len(values)
        chunk = StreamChunk(values=values, gids=gids)
        ring.advance(chunk)
        oracle.advance(chunk)
        assert_bit_equal(ring.emit(), oracle.emit(), tick)
    ring.close()
    oracle.close()


# -- the pricing memo -----------------------------------------------------


def rebuilt_trace(maintainer, emitted=True):
    """The tick trace rebuilt from scratch, as every tick built it before
    shapes were memoized: the reference the memo must reproduce."""
    live = max(1, min(maintainer.ticks, maintainer.window_chunks))
    trace = ExecutionTrace()
    with faults.suspended():
        if maintainer.mode == "incremental":
            trace.extend(
                build_trace(
                    max(1, maintainer.chunk_rows // maintainer.shards),
                    network_k(maintainer.k),
                    CANDIDATE_BYTES,
                    maintainer.flags,
                    maintainer.device,
                )
            )
            if emitted:
                merge = trace.launch("tick-merge")
                candidates = (live + maintainer.shards) * maintainer.k
                merge.add_global_read(float(candidates) * CANDIDATE_BYTES)
                merge.add_global_write(float(maintainer.k) * CANDIDATE_BYTES)
        elif emitted:
            trace.extend(
                build_trace(
                    max(1, live * maintainer.chunk_rows),
                    network_k(maintainer.k),
                    CANDIDATE_BYTES,
                    maintainer.flags,
                    maintainer.device,
                )
            )
    trace.notes["streaming.mode"] = maintainer.mode
    trace.notes["streaming.shards"] = maintainer.shards
    return trace


def kernel_spans(tracer):
    return [
        (span.name, span.sim_ms, dict(span.attributes))
        for span in tracer.spans("kernel")
    ]


def recorded_metrics(registry):
    return [
        entry
        for entry in registry.snapshot()
        if entry["name"].startswith(("gpu.", "trace.", "timing."))
    ]


@pytest.mark.parametrize("mode", ["incremental", "recompute"])
@pytest.mark.parametrize("shards", [1, 3])
def test_observed_ticks_record_the_rebuilt_trace(rng, mode, shards):
    subscription = Subscription(8, 512, window=4 * 512, shards=shards, mode=mode)
    for _ in range(7):
        values = rng.standard_normal(512).astype(np.float32)
        with obs.observe() as observed:
            result = subscription.tick(values)
        reference = rebuilt_trace(subscription.maintainer)
        with obs.observe() as expected:
            expected_ms = record_trace(reference, subscription.device)
        assert kernel_spans(observed.tracer) == kernel_spans(expected.tracer)
        assert recorded_metrics(observed.metrics) == recorded_metrics(expected.metrics)
        assert result.simulated_ms == expected_ms
        assert result.trace.kernels == reference.kernels
        assert result.trace.notes == reference.notes
    subscription.close()


@pytest.mark.parametrize("mode", ["incremental", "recompute"])
def test_unobserved_ticks_charge_the_rebuilt_trace(rng, mode):
    subscription = Subscription(8, 512, window=4 * 512, mode=mode)
    for _ in range(7):
        result = subscription.tick(rng.standard_normal(512).astype(np.float32))
        reference = rebuilt_trace(subscription.maintainer)
        expected = trace_time(reference, subscription.device).total_ms
        assert result.simulated_ms == expected
    subscription.close()


def test_mutating_a_tick_trace_changes_no_later_tick(rng):
    subscription = Subscription(8, 512, window=2 * 512, mode="incremental")
    for _ in range(3):
        subscription.tick(rng.standard_normal(512).astype(np.float32))
    first = subscription.tick(rng.standard_normal(512).astype(np.float32))
    assert first.trace is first.trace
    first.trace.kernels[0].global_bytes_read += 1e12
    first.trace.kernels.pop()
    first.trace.notes.clear()
    second = subscription.tick(rng.standard_normal(512).astype(np.float32))
    reference = rebuilt_trace(subscription.maintainer)
    assert second.shape is first.shape
    assert second.trace.kernels == reference.kernels
    assert second.trace.notes == reference.notes
    assert second.simulated_ms == first.simulated_ms
    subscription.close()


def test_shape_memo_stays_bounded(rng):
    maintainer = WindowTopK(4, 3, 64, mode="recompute")
    maintainer.open()
    chunk = StreamChunk(
        values=rng.standard_normal(64).astype(np.float32),
        gids=np.arange(64, dtype=np.int64),
    )
    for _ in range(2):
        for _ in range(5):
            maintainer.advance(chunk)
            for emitted in (True, False):
                maintainer.tick_shape(emitted=emitted)
        maintainer.degrade_to_incremental()
        maintainer.close()
        maintainer.open()
    # Live 1..3 emitted in each mode, plus one shed shape per mode.
    assert len(maintainer._shapes) == 2 * 3 + 2
    maintainer.close()


def test_steady_state_tick_does_only_the_chunks_work(rng, monkeypatch):
    k, chunk_rows, window_chunks = 64, 1024, 16
    subscription = Subscription(
        k, chunk_rows, window=window_chunks * chunk_rows, mode="incremental"
    )
    chunks = [
        rng.standard_normal(chunk_rows).astype(np.float32)
        for _ in range(window_chunks + 4)
    ]
    for values in chunks[:window_chunks]:
        subscription.tick(values)
    calls = Counter()

    def counting(name, function, measure=lambda *args: 1):
        def wrapper(*args, **kwargs):
            calls[name] += measure(*args)
            return function(*args, **kwargs)

        return wrapper

    for module in (window_module, subscription_module):
        for name in ("trace_time", "build_trace"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(
        keys, "encode", counting("encoded", keys.encode, lambda values: len(values))
    )
    for values in chunks[window_chunks:]:
        subscription.tick(values)
    assert calls["trace_time"] == 0
    assert calls["build_trace"] == 0
    assert calls["encoded"] == 4 * (chunk_rows + k)
    subscription.close()
