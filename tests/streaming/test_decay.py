"""DecayedTopK: the carried candidate set vs full-history rescoring."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.streaming.window import DecayedTopK, StreamChunk


def make_chunks(values_per_chunk):
    chunks = []
    next_gid = 0
    for values in values_per_chunk:
        values = np.asarray(values)
        gids = np.arange(next_gid, next_gid + len(values), dtype=np.int64)
        next_gid += len(values)
        chunks.append(StreamChunk(values=values, gids=gids))
    return chunks


def drive_pair(k, decay, chunks, shards=1):
    """Tick the incremental arm against the full-history oracle; assert
    bit-equality of scores and gids on every tick."""
    incremental = DecayedTopK(k, decay, shards=shards, mode="incremental")
    oracle = DecayedTopK(k, decay, shards=shards, mode="recompute")
    incremental.open()
    oracle.open()
    answers = []
    for tick, chunk in enumerate(chunks):
        incremental.advance(chunk)
        oracle.advance(chunk)
        inc_scores, inc_gids = incremental.emit()
        ora_scores, ora_gids = oracle.emit()
        assert np.array_equal(inc_scores, ora_scores, equal_nan=True), (
            f"scores diverged at tick {tick}"
        )
        assert np.array_equal(inc_gids, ora_gids), (
            f"gids diverged at tick {tick}"
        )
        answers.append((inc_scores, inc_gids))
    incremental.close()
    oracle.close()
    return answers


class TestValidation:
    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            DecayedTopK(0, 0.9)

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
    def test_rejects_decay_outside_unit_interval(self, decay):
        with pytest.raises(InvalidParameterError):
            DecayedTopK(4, decay)

    def test_rejects_bad_shards(self):
        with pytest.raises(InvalidParameterError):
            DecayedTopK(4, 0.9, shards=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            DecayedTopK(4, 0.9, mode="lazy")

    def test_auto_resolves_to_incremental(self):
        assert DecayedTopK(4, 0.9, mode="auto").mode == "incremental"


class TestProtocol:
    def test_advance_before_open_raises(self):
        chunk = make_chunks([np.arange(4, dtype=np.float32)])[0]
        with pytest.raises(InvalidParameterError):
            DecayedTopK(2, 0.9).advance(chunk)

    def test_emit_before_open_raises(self):
        with pytest.raises(InvalidParameterError):
            DecayedTopK(2, 0.9).emit()

    def test_empty_emit_before_first_chunk(self):
        maintainer = DecayedTopK(2, 0.9)
        maintainer.open()
        scores, gids = maintainer.emit()
        assert len(scores) == 0 and len(gids) == 0
        maintainer.close()


class TestParity:
    @pytest.mark.parametrize("decay", [0.5, 0.9, 0.99, 1.0])
    def test_decay_factors(self, rng, decay):
        chunks = [rng.standard_normal(48).astype(np.float32)
                  for _ in range(12)]
        drive_pair(6, decay, make_chunks(chunks))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_dtypes(self, rng, dtype):
        chunks = []
        for _ in range(8):
            if np.dtype(dtype).kind == "f":
                chunks.append(rng.standard_normal(32).astype(dtype))
            else:
                chunks.append(rng.integers(0, 100, size=32).astype(dtype))
        drive_pair(5, 0.8, make_chunks(chunks))

    def test_cross_tick_ties(self):
        # value 10 arriving at tick t scores exactly like value 9 at
        # tick t+... no — engineer an exact collision instead: a row of
        # value v at tick 1 scores v*0.5 at tick 2, colliding with a
        # fresh row of value v*0.5.  Ties must break to the lower gid in
        # both arms identically.
        chunks = make_chunks(
            [
                np.array([8.0, 2.0], dtype=np.float64),
                np.array([4.0, 1.0], dtype=np.float64),
                np.array([2.0, 0.5], dtype=np.float64),
            ]
        )
        answers = drive_pair(4, 0.5, chunks)
        # At tick 2: gid 0 scores 8*0.25 = 2.0, gid 2 scores 4*0.5 = 2.0,
        # gid 4 scores 2.0 — a three-way collision resolved by gid.
        scores, gids = answers[2]
        assert np.array_equal(scores[:3], np.array([2.0, 2.0, 2.0]))
        assert np.array_equal(gids[:3], np.array([0, 2, 4]))

    def test_nan_and_inf(self, rng):
        chunks = []
        for _ in range(6):
            values = rng.standard_normal(24).astype(np.float32)
            values[0] = np.nan
            values[1] = np.inf
            chunks.append(values)
        answers = drive_pair(4, 0.9, make_chunks(chunks))
        # The newest Inf always wins (Inf * decay**0 vs decayed elders is
        # still Inf; ties between Infs break to the lower gid).
        assert np.isposinf(answers[-1][0][0])

    def test_duplicate_values_within_chunk(self):
        chunks = make_chunks(
            [np.full(8, 3.0, dtype=np.float32) for _ in range(4)]
        )
        answers = drive_pair(3, 0.7, chunks)
        # Fresh duplicates outscore decayed ones; within the fresh chunk
        # ties break to the lower gid.
        assert np.array_equal(answers[-1][1], np.array([24, 25, 26]))

    def test_no_decay_reduces_to_running_topk(self, rng):
        chunks = [rng.random(32).astype(np.float32) for _ in range(5)]
        answers = drive_pair(4, 1.0, make_chunks(chunks))
        everything = np.concatenate(chunks).astype(np.float64)
        expected = np.sort(everything)[::-1][:4]
        assert np.array_equal(answers[-1][0], expected)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_summaries(self, rng, shards):
        chunks = [rng.standard_normal(40).astype(np.float32)
                  for _ in range(6)]
        sharded = drive_pair(5, 0.9, make_chunks(chunks), shards=shards)
        unsharded = drive_pair(5, 0.9, make_chunks(chunks), shards=1)
        for tick in range(len(chunks)):
            assert np.array_equal(sharded[tick][0], unsharded[tick][0])
            assert np.array_equal(sharded[tick][1], unsharded[tick][1])


class TestEmitK:
    def _chunks(self, rng):
        return make_chunks(
            [rng.standard_normal(32).astype(np.float32) for _ in range(5)]
        )

    def test_smaller_k_keeps_the_carried_set(self, rng):
        # emit(k=2) at tick 2 must not shrink the carried winners: later
        # ticks still match the recompute arm.
        incremental = DecayedTopK(8, 0.9, mode="incremental")
        oracle = DecayedTopK(8, 0.9, mode="recompute")
        incremental.open()
        oracle.open()
        for tick, chunk in enumerate(self._chunks(rng)):
            incremental.advance(chunk)
            oracle.advance(chunk)
            k = 2 if tick == 2 else None
            inc_scores, inc_gids = incremental.emit(k)
            ora_scores, ora_gids = oracle.emit(k)
            assert np.array_equal(inc_scores, ora_scores), tick
            assert np.array_equal(inc_gids, ora_gids), tick
            assert len(inc_gids) == (2 if tick == 2 else 8)
        incremental.close()
        oracle.close()

    def test_incremental_rejects_larger_k(self, rng):
        maintainer = DecayedTopK(4, 0.9, mode="incremental")
        maintainer.open()
        maintainer.advance(self._chunks(rng)[0])
        with pytest.raises(InvalidParameterError):
            maintainer.emit(k=16)
        maintainer.close()

    def test_recompute_answers_larger_k(self, rng):
        maintainer = DecayedTopK(4, 0.9, mode="recompute")
        maintainer.open()
        maintainer.advance(self._chunks(rng)[0])
        assert len(maintainer.emit(k=16)[1]) == 16
        maintainer.close()

    @pytest.mark.parametrize("mode", ["incremental", "recompute"])
    def test_cut_matches_the_lexsort_reference(self, rng, mode):
        # The canonical cut over encoded scores is the order of
        # np.lexsort((gids, -scores)): NaN last, -0.0 equal to +0.0, ties
        # to the lower gid.
        special = np.array(
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, np.nan, 0.0],
            dtype=np.float64,
        )
        chunks = [rng.choice(special, size=24) for _ in range(4)]
        maintainer = DecayedTopK(6, 0.5, mode=mode)
        maintainer.open()
        for tick, chunk in enumerate(make_chunks(chunks)):
            maintainer.advance(chunk)
            scores, gids = maintainer.emit()
            all_values = np.concatenate(chunks[: tick + 1])
            all_gids = np.arange(len(all_values), dtype=np.int64)
            arrivals = np.repeat(np.arange(tick + 1), 24)
            all_scores = all_values * np.float64(0.5) ** (tick - arrivals)
            order = np.lexsort((all_gids, -all_scores))[:6]
            assert np.array_equal(gids, all_gids[order]), tick
            assert np.array_equal(
                scores.view(np.uint64), all_scores[order].view(np.uint64)
            ), tick
        maintainer.close()


class TestStateBounds:
    def test_carried_set_stays_bounded(self, rng):
        # The incremental arm's whole point: state is O(k), not O(stream).
        maintainer = DecayedTopK(8, 0.9)
        maintainer.open()
        for chunk in make_chunks(
            [rng.random(64).astype(np.float32) for _ in range(50)]
        ):
            maintainer.advance(chunk)
            maintainer.emit()
            assert len(maintainer._values) <= 8 + 8  # winners + new summary
        maintainer.close()

    def test_emitted_scores_are_float64(self, rng):
        maintainer = DecayedTopK(4, 0.9)
        maintainer.open()
        chunk = make_chunks([rng.random(16).astype(np.float32)])[0]
        maintainer.advance(chunk)
        scores, _ = maintainer.emit()
        assert scores.dtype == np.float64
        maintainer.close()

    def test_trace_notes(self, device):
        maintainer = DecayedTopK(8, 0.9, device=device, shards=3)
        trace = maintainer.tick_trace(1024)
        assert trace.notes["streaming.mode"] == "incremental"
        assert trace.notes["streaming.shards"] == 3
