"""WindowTopK: the summary ring vs the recompute oracle, bit for bit."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.engine.operators import TickInterpreter
from repro.errors import InvalidParameterError
from repro.gpu.timing import trace_time
from repro.streaming.window import MODES, StreamChunk, WindowTopK


def make_chunks(values_per_chunk):
    """Wrap a list of per-chunk value arrays into StreamChunks with
    globally increasing row ids."""
    chunks = []
    next_gid = 0
    for values in values_per_chunk:
        values = np.asarray(values)
        gids = np.arange(next_gid, next_gid + len(values), dtype=np.int64)
        next_gid += len(values)
        chunks.append(StreamChunk(values=values, gids=gids))
    return chunks


def drive_pair(k, window_chunks, chunks, shards=1):
    """Tick both maintenance arms over the same chunks; assert bit-equality
    on every tick and return the per-tick answers."""
    incremental = WindowTopK(
        k, window_chunks, len(chunks[0]), shards=shards, mode="incremental"
    )
    recompute = WindowTopK(
        k, window_chunks, len(chunks[0]), shards=shards, mode="recompute"
    )
    incremental.open()
    recompute.open()
    answers = []
    for tick, chunk in enumerate(chunks):
        incremental.advance(chunk)
        recompute.advance(chunk)
        inc_values, inc_gids = incremental.emit()
        rec_values, rec_gids = recompute.emit()
        assert np.array_equal(inc_values, rec_values, equal_nan=True), (
            f"values diverged at tick {tick}"
        )
        assert np.array_equal(inc_gids, rec_gids), (
            f"gids diverged at tick {tick}"
        )
        answers.append((inc_values, inc_gids))
    incremental.close()
    recompute.close()
    return answers


class TestValidation:
    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            WindowTopK(0, 4, 64)

    def test_rejects_bad_window_chunks(self):
        with pytest.raises(InvalidParameterError):
            WindowTopK(4, 0, 64)

    def test_rejects_bad_chunk_rows(self):
        with pytest.raises(InvalidParameterError):
            WindowTopK(4, 4, 0)

    def test_rejects_bad_shards(self):
        with pytest.raises(InvalidParameterError):
            WindowTopK(4, 4, 64, shards=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            WindowTopK(4, 4, 64, mode="lazy")

    def test_chunk_alignment_enforced(self):
        with pytest.raises(InvalidParameterError):
            StreamChunk(
                values=np.zeros(4, dtype=np.float32),
                gids=np.arange(3, dtype=np.int64),
            )


class TestProtocol:
    def test_advance_before_open_raises(self):
        maintainer = WindowTopK(4, 4, 8, mode="incremental")
        chunk = make_chunks([np.arange(8, dtype=np.float32)])[0]
        with pytest.raises(InvalidParameterError):
            maintainer.advance(chunk)

    def test_emit_before_open_raises(self):
        maintainer = WindowTopK(4, 4, 8, mode="incremental")
        with pytest.raises(InvalidParameterError):
            maintainer.emit()

    def test_emit_after_close_raises(self):
        maintainer = WindowTopK(4, 4, 8, mode="incremental")
        maintainer.open()
        maintainer.close()
        with pytest.raises(InvalidParameterError):
            maintainer.emit()

    def test_empty_emit_before_first_chunk(self):
        maintainer = WindowTopK(4, 4, 8, mode="incremental")
        maintainer.open()
        values, gids = maintainer.emit()
        assert len(values) == 0 and len(gids) == 0
        maintainer.close()

    def test_reopen_resets_state(self):
        maintainer = WindowTopK(2, 4, 4, mode="incremental")
        chunk = make_chunks([np.array([1.0, 2.0, 3.0, 4.0], np.float32)])[0]
        maintainer.open()
        maintainer.advance(chunk)
        maintainer.close()
        maintainer.open()
        assert maintainer.ticks == 0
        assert len(maintainer.emit()[0]) == 0
        maintainer.close()


class TestEmitK:
    """A caller's k larger than the maintainer's: recompute answers it;
    the summary ring holds only k rows per chunk, so it refuses."""

    def _chunks(self, rng):
        return make_chunks(
            [rng.standard_normal(256).astype(np.float32) for _ in range(6)]
        )

    def test_incremental_rejects_larger_k(self, rng):
        maintainer = WindowTopK(4, 8, 256, mode="incremental")
        maintainer.open()
        for chunk in self._chunks(rng):
            maintainer.advance(chunk)
        with pytest.raises(InvalidParameterError):
            maintainer.emit(k=16)
        assert len(maintainer.emit(k=2)[1]) == 2
        maintainer.close()

    def test_recompute_answers_larger_k(self, rng):
        chunks = self._chunks(rng)
        maintainer = WindowTopK(4, 8, 256, mode="recompute")
        maintainer.open()
        for chunk in chunks:
            maintainer.advance(chunk)
        values, gids = maintainer.emit(k=16)
        maintainer.close()
        everything = np.concatenate([chunk.values for chunk in chunks])
        expected_values, expected_gids = reference_topk(everything, 16)
        assert np.array_equal(gids, expected_gids)
        assert np.array_equal(values, expected_values)

    def test_tick_interpreter_passes_the_callers_k(self, rng):
        chunk = self._chunks(rng)[0]
        incremental = WindowTopK(4, 8, 256, mode="incremental")
        with TickInterpreter(incremental) as interpreter:
            with pytest.raises(InvalidParameterError):
                interpreter.tick(chunk, 16)
        recompute = WindowTopK(4, 8, 256, mode="recompute")
        with TickInterpreter(recompute) as interpreter:
            assert len(interpreter.tick(chunk, 16)[1]) == 16


class TestParityMatrix:
    """Incremental vs recompute bit-equality across the value-type and
    k-edge matrix, including eviction boundaries (ticks > window)."""

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint64]
    )
    def test_dtypes(self, rng, dtype):
        chunks = []
        for _ in range(10):
            if np.dtype(dtype).kind == "f":
                chunks.append(rng.standard_normal(64).astype(dtype))
            else:
                chunks.append(
                    rng.integers(0, 50, size=64).astype(dtype)
                )
        drive_pair(7, 3, make_chunks(chunks))

    @pytest.mark.parametrize("k", [1, 3, 64, 100])
    def test_k_edges(self, rng, k):
        # k of 64 saturates a chunk; 100 exceeds every chunk, so the
        # summary is the chunk itself and the merge sees everything.
        chunks = [rng.standard_normal(64).astype(np.float32)
                  for _ in range(9)]
        drive_pair(k, 4, make_chunks(chunks))

    def test_nan_inf_mix(self, rng):
        chunks = []
        for _ in range(12):
            values = rng.standard_normal(48).astype(np.float32)
            values[rng.integers(0, 48, size=6)] = np.nan
            values[rng.integers(0, 48, size=3)] = np.inf
            values[rng.integers(0, 48, size=3)] = -np.inf
            chunks.append(values)
        answers = drive_pair(8, 3, make_chunks(chunks))
        # Inf must win, NaN must rank after every finite value.
        final_values = answers[-1][0]
        assert np.isposinf(final_values[0])

    def test_all_nan_window(self):
        chunks = [np.full(16, np.nan, dtype=np.float32) for _ in range(6)]
        drive_pair(4, 2, make_chunks(chunks))

    def test_duplicate_ties_resolve_to_lower_gid(self):
        # Every chunk is the same constant: winners must be the oldest
        # surviving rows, i.e. the lowest gids still inside the window.
        chunks = make_chunks(
            [np.full(8, 5.0, dtype=np.float32) for _ in range(7)]
        )
        answers = drive_pair(4, 3, chunks)
        # Window covers chunks 4..6 (rows 32..55): ties break low.
        assert np.array_equal(
            answers[-1][1], np.array([32, 33, 34, 35], dtype=np.int64)
        )

    def test_eviction_boundary(self, rng):
        # A huge value must vanish the tick its chunk leaves the window.
        chunks = [rng.random(32).astype(np.float32) for _ in range(8)]
        chunks[0][5] = 1e6
        answers = drive_pair(1, 3, make_chunks(chunks))
        assert answers[2][1][0] == 5       # still live in window [0, 2]
        assert answers[3][1][0] != 5       # evicted at tick 3

    def test_window_of_one_chunk(self, rng):
        # Full churn: every tick replaces the whole window.
        chunks = [rng.random(32).astype(np.float32) for _ in range(5)]
        answers = drive_pair(4, 1, make_chunks(chunks))
        for tick, chunk in enumerate(chunks):
            expected = np.sort(chunk)[::-1][:4]
            assert np.array_equal(answers[tick][0], expected)

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_sharded_summaries(self, rng, shards):
        chunks = [rng.standard_normal(60).astype(np.float32)
                  for _ in range(8)]
        sharded = drive_pair(6, 3, make_chunks(chunks), shards=shards)
        unsharded = drive_pair(6, 3, make_chunks(chunks), shards=1)
        for tick in range(len(chunks)):
            assert np.array_equal(
                sharded[tick][0], unsharded[tick][0], equal_nan=True
            )
            assert np.array_equal(sharded[tick][1], unsharded[tick][1])


class TestDegrade:
    def test_degrade_mid_stream_stays_exact(self, rng):
        chunks = make_chunks(
            [rng.standard_normal(48).astype(np.float32) for _ in range(10)]
        )
        degrading = WindowTopK(5, 4, 48, mode="recompute")
        oracle = WindowTopK(5, 4, 48, mode="recompute")
        degrading.open()
        oracle.open()
        for tick, chunk in enumerate(chunks):
            degrading.advance(chunk)
            oracle.advance(chunk)
            if tick == 5:
                assert degrading.degrade_to_incremental()
                assert degrading.mode == "incremental"
            assert np.array_equal(
                degrading.emit()[0], oracle.emit()[0], equal_nan=True
            )
        degrading.close()
        oracle.close()

    def test_degrade_is_idempotent(self):
        maintainer = WindowTopK(4, 4, 16, mode="incremental")
        assert not maintainer.degrade_to_incremental()


class TestModeAndTrace:
    def test_auto_picks_incremental_at_low_churn(self, device):
        maintainer = WindowTopK(
            64, 16, 1 << 20, device=device, mode="auto"
        )
        assert maintainer.mode == "incremental"

    def test_auto_picks_recompute_at_full_churn(self, device):
        maintainer = WindowTopK(64, 1, 1 << 20, device=device, mode="auto")
        assert maintainer.mode == "recompute"

    def test_modes_constant_lists_both(self):
        assert MODES == ("incremental", "recompute")

    def test_incremental_trace_cheaper_at_steady_state(self, device):
        shared = dict(device=device)
        incremental = WindowTopK(
            64, 16, 1 << 20, mode="incremental", **shared
        )
        recompute = WindowTopK(64, 16, 1 << 20, mode="recompute", **shared)
        inc_ms = trace_time(incremental.tick_trace(live=16), device).total_ms
        rec_ms = trace_time(recompute.tick_trace(live=16), device).total_ms
        assert rec_ms > 2.0 * inc_ms

    def test_trace_notes_mode_and_shards(self, device):
        maintainer = WindowTopK(
            8, 4, 1024, device=device, shards=2, mode="incremental"
        )
        trace = maintainer.tick_trace(live=4)
        assert trace.notes["streaming.mode"] == "incremental"
        assert trace.notes["streaming.shards"] == 2

    def test_live_rows_tracks_warmup_and_cap(self):
        maintainer = WindowTopK(2, 3, 10, mode="incremental")
        maintainer.open()
        chunk = make_chunks([np.arange(10, dtype=np.float32)])[0]
        assert maintainer.live_rows() == 0
        for expected in (10, 20, 30, 30, 30):
            maintainer.advance(chunk)
            assert maintainer.live_rows() == expected
        maintainer.close()
