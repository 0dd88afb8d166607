"""The incremental operator contract and the one-shot degenerate stream."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.engine.operators import (
    IncrementalOperator,
    SelectionOperator,
    TickInterpreter,
    run_once,
)
from repro.engine.session import Session
from repro.engine.twitter import generate_tweets
from repro.errors import InvalidParameterError
from repro.gpu.faults import FaultInjector, FaultPlan, inject
from repro.plan import build_fallback


class RecordingOperator(IncrementalOperator):
    """Logs the verbs it is driven through; emits the chunk count."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def open(self):
        super().open()
        self.calls.append("open")
        self.chunks = 0

    def advance(self, chunk):
        self._require_open("advance")
        self.calls.append("advance")
        self.chunks += 1

    def emit(self, k, model_n=None):
        self._require_open("emit")
        self.calls.append("emit")
        return self.chunks

    def close(self):
        super().close()
        self.calls.append("close")


class TestProtocol:
    def test_verbs_require_open(self):
        operator = RecordingOperator()
        with pytest.raises(InvalidParameterError):
            operator.advance(np.zeros(1))
        with pytest.raises(InvalidParameterError):
            operator.emit(1)

    def test_close_revokes_open(self):
        operator = RecordingOperator()
        operator.open()
        operator.close()
        with pytest.raises(InvalidParameterError):
            operator.emit(1)

    def test_run_once_is_the_degenerate_stream(self):
        operator = RecordingOperator()
        assert run_once(operator, np.zeros(4), 2) == 1
        assert operator.calls == ["open", "advance", "emit", "close"]

    def test_interpreter_ticks_repeatedly(self):
        operator = RecordingOperator()
        with TickInterpreter(operator) as interpreter:
            for expected in (1, 2, 3):
                assert interpreter.tick(np.zeros(4), 2) == expected
            assert interpreter.ticks == 3
        assert operator.calls[-1] == "close"

    def test_interpreter_tick_outside_context_raises(self):
        interpreter = TickInterpreter(RecordingOperator())
        with pytest.raises(InvalidParameterError):
            interpreter.tick(np.zeros(4), 2)

    def test_interpreter_closes_on_error(self):
        operator = RecordingOperator()
        with pytest.raises(RuntimeError):
            with TickInterpreter(operator):
                raise RuntimeError("boom")
        assert operator.calls[-1] == "close"


class TestSelectionOperator:
    def plan(self, n, k):
        return build_fallback(
            [("bitonic", 1e-3)], n=n, k=k, terminal_cpu=True
        )

    def test_one_shot_matches_reference(self, rng):
        ranks = rng.standard_normal(4096).astype(np.float32)
        indices, trace = run_once(
            SelectionOperator(self.plan(4096, 32)), ranks, 32
        )
        _, expected = reference_topk(ranks, 32)
        assert np.array_equal(indices, expected)
        assert trace is None  # bitonic accounts via the query-level trace

    def test_single_chunk_passes_through_unbuffered(self, rng):
        # The bit-identity keystone: a one-chunk stream must hand emit()
        # the caller's exact array, not a copy or a concatenation.
        ranks = rng.standard_normal(256).astype(np.float32)
        operator = SelectionOperator(self.plan(256, 4))
        operator.open()
        operator.advance(ranks)
        assert operator._buffered() is ranks
        operator.close()

    def test_multi_chunk_equals_concatenated_one_shot(self, rng):
        parts = [
            rng.standard_normal(512).astype(np.float32) for _ in range(4)
        ]
        whole = np.concatenate(parts)
        operator = SelectionOperator(self.plan(2048, 16))
        operator.open()
        for part in parts:
            operator.advance(part)
        chunked, _ = operator.emit(16)
        operator.close()
        one_shot, _ = run_once(
            SelectionOperator(self.plan(2048, 16)), whole, 16
        )
        assert np.array_equal(chunked, one_shot)

    def test_open_resets_buffered_chunks(self, rng):
        operator = SelectionOperator(self.plan(64, 4))
        operator.open()
        operator.advance(rng.standard_normal(64).astype(np.float32))
        operator.close()
        operator.open()
        assert operator._chunks == []
        operator.close()

    def test_stage_out_of_resources_is_skipped(self, rng):
        ranks = rng.standard_normal(4096).astype(np.float32)
        plan = build_fallback(
            [("bitonic", 1e-3), ("sort", 2e-3)], n=4096, k=32,
            terminal_cpu=True,
        )
        injector = FaultInjector(
            seed=0,
            plans=[FaultPlan(site="kernel-launch", fault="resource-exhausted",
                             nth=1)],
        )
        with inject(injector):
            indices, _ = run_once(SelectionOperator(plan), ranks, 32)
        assert injector.schedule()
        assert np.array_equal(indices, reference_topk(ranks, 32)[1])


class TestSessionResourceExhausted:
    def test_sql_answers_when_a_kernel_runs_out_of_resources(self):
        # topk() and the resilient executor skip a stage that hits a hard
        # resource limit at run time; the engine must too, ending on its
        # CPU oracle instead of raising.
        session = Session()
        session.register(generate_tweets(1 << 14))
        sql = "SELECT id FROM tweets ORDER BY likes_count DESC LIMIT 32"
        injector = FaultInjector(
            seed=0,
            plans=[FaultPlan(site="kernel-launch", fault="resource-exhausted",
                             nth=1)],
        )
        with inject(injector):
            result = session.sql(sql)
        assert injector.schedule()
        likes = session.table("tweets").column("likes_count")
        rows = result.column("id")
        assert len(set(rows.tolist())) == 32
        assert np.array_equal(likes[rows], reference_topk(likes, 32)[0])
