"""Subscriptions: ticking, shed pricing, identity (plans/fingerprints),
and EXPLAIN."""

import numpy as np
import pytest

from repro.costmodel.streaming_model import CANDIDATE_BYTES
from repro.errors import InvalidParameterError
from repro.gpu.timing import trace_time
from repro.streaming.subscription import Subscription, explain_stream


class TestConstruction:
    def test_requires_exactly_one_semantics(self):
        with pytest.raises(InvalidParameterError):
            Subscription(4, 64)
        with pytest.raises(InvalidParameterError):
            Subscription(4, 64, window=256, decay=0.9)

    def test_window_must_be_chunk_multiple(self):
        with pytest.raises(InvalidParameterError):
            Subscription(4, 64, window=100)
        with pytest.raises(InvalidParameterError):
            Subscription(4, 64, window=32)

    def test_rejects_bad_chunk_rows(self):
        with pytest.raises(InvalidParameterError):
            Subscription(4, 0, window=256)

    def test_decay_forces_incremental_under_auto(self):
        subscription = Subscription(4, 64, decay=0.9, mode="auto")
        assert subscription.mode == "incremental"
        subscription.close()


class TestTicking:
    def test_tick_emits_current_topk(self, rng):
        with Subscription(3, 16, window=64, mode="incremental") as subscription:
            values = rng.random(16).astype(np.float32)
            result = subscription.tick(values)
            assert result.tick == 0
            assert np.array_equal(result.values, np.sort(values)[::-1][:3])
            assert result.simulated_ms > 0
            assert result.mode == "incremental"
            assert result.emitted

    def test_auto_gids_are_contiguous_across_ticks(self, rng):
        with Subscription(16, 16, window=64, mode="incremental") as subscription:
            subscription.tick(rng.random(16).astype(np.float32))
            result = subscription.tick(np.full(16, 1e9, dtype=np.float32))
            # The second chunk's rows got gids 16..31 and all win.
            assert np.array_equal(result.gids, np.arange(16, 32, dtype=np.int64))

    def test_shed_tick_absorbs_but_emits_nothing(self, rng):
        with Subscription(3, 16, window=64, mode="incremental") as subscription:
            big = np.full(16, 1e9, dtype=np.float32)
            shed = subscription.tick(big, emit=False)
            assert not shed.emitted
            assert len(shed.values) == 0
            # The shed chunk still entered the window.
            follow = subscription.tick(rng.random(16).astype(np.float32))
            assert follow.values[0] == 1e9

    def test_step_without_source_raises(self):
        with Subscription(3, 16, window=64) as subscription:
            with pytest.raises(InvalidParameterError):
                subscription.step()

    def test_closed_subscription_rejects_ticks(self, rng):
        subscription = Subscription(3, 16, window=64)
        subscription.close()
        with pytest.raises(InvalidParameterError):
            subscription.tick(rng.random(16).astype(np.float32))


class TestShedPricing:
    """A shed tick is charged only for the kernels its ``advance`` ran."""

    def _ticks(self, rng, mode, **shape):
        chunk_rows = 1 << 14
        subscription = Subscription(64, chunk_rows, window=1 << 16, mode=mode, **shape)
        with subscription:
            emitted = subscription.tick(rng.random(chunk_rows).astype(np.float32))
            shed = subscription.tick(
                rng.random(chunk_rows).astype(np.float32), emit=False
            )
        return emitted, shed

    def test_recompute_shed_charges_nothing(self, rng):
        emitted, shed = self._ticks(rng, "recompute")
        assert emitted.simulated_ms > 0
        assert shed.simulated_ms == 0.0
        assert shed.trace.num_launches == 0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_incremental_shed_charges_only_the_summarize(self, rng, shards):
        emitted, shed = self._ticks(rng, "incremental", shards=shards)
        names = [kernel.name for kernel in emitted.trace.kernels]
        assert names[-1] == "tick-merge"
        assert [kernel.name for kernel in shed.trace.kernels] == names[:-1]
        assert shed.simulated_ms == trace_time(shed.trace, shed.shape.device).total_ms
        assert 0 < shed.simulated_ms < emitted.simulated_ms

    @pytest.mark.parametrize("shards", [1, 3])
    def test_decayed_merge_reads_every_summary_since_its_last_emit(self, rng, shards):
        k = 8

        def merge_reads(result):
            merge = result.trace.kernels[-1]
            assert merge.name == "tick-merge"
            return merge.global_bytes_read / CANDIDATE_BYTES

        with Subscription(k, 256, decay=0.9, shards=shards) as subscription:
            ticks = [
                subscription.tick(rng.random(256).astype(np.float32), emit=emit)
                for emit in (True, False, False, True, True)
            ]
        assert merge_reads(ticks[0]) == (1 + shards) * k
        assert [kernel.name for kernel in ticks[1].trace.kernels] == [
            kernel.name for kernel in ticks[0].trace.kernels[:-1]
        ]
        assert merge_reads(ticks[3]) == (1 + 3 * shards) * k
        assert merge_reads(ticks[4]) == (1 + shards) * k


class TestIdentity:
    def test_plan_roots_topk_over_stream(self):
        with Subscription(8, 32, window=128, mode="incremental") as subscription:
            plan = subscription.plan()
            assert plan.kind == "TopK"
            assert plan.algorithm == "incremental-window"
            (stream,) = plan.children
            assert stream.kind == "Stream"
            assert stream.chunk_rows == 32
            assert stream.window == 128

    def test_modes_fingerprint_distinctly(self):
        fingerprints = set()
        for mode in ("incremental", "recompute"):
            with Subscription(8, 32, window=128, mode=mode) as subscription:
                fingerprints.add(subscription.fingerprint())
        assert len(fingerprints) == 2

    def test_window_and_decay_fingerprint_distinctly(self):
        with Subscription(8, 32, window=128) as windowed:
            with Subscription(8, 32, decay=0.9) as decayed:
                assert windowed.fingerprint() != decayed.fingerprint()

    def test_different_windows_fingerprint_distinctly(self):
        with Subscription(8, 32, window=128) as narrow:
            with Subscription(8, 32, window=256) as wide:
                assert narrow.fingerprint() != wide.fingerprint()


class TestExplainStream:
    def test_window_prices_both_modes(self, device):
        plan = explain_stream(64, 1 << 14, window=1 << 18, device=device)
        modes = [strategy.strategy for strategy in plan.strategies]
        assert sorted(modes) == ["incremental", "recompute"]
        # Sorted cheapest first; at 6% churn incremental must win.
        assert plan.strategies[0].strategy == "incremental"
        assert plan.strategies[0].simulated_ms < plan.strategies[1].simulated_ms

    def test_decay_prices_only_incremental(self, device):
        plan = explain_stream(64, 1 << 14, decay=0.9, device=device)
        assert [s.strategy for s in plan.strategies] == ["incremental"]

    def test_sql_summary_line(self, device):
        plan = explain_stream(8, 128, window=512, device=device)
        assert plan.sql == (
            "SUBSCRIBE TOP 8 BY score FROM stream EVERY 128 OVER WINDOW 512"
        )

    def test_render_includes_plan_tree(self, device):
        rendered = explain_stream(64, 1 << 14, window=1 << 18, device=device).render()
        assert "Stream" in rendered
        assert "TopK" in rendered
