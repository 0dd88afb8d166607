"""The incremental operator model: every selection runs tick-by-tick.

This module is the execution contract the engine's interpreter drives.  A
plan node's runtime counterpart is an :class:`IncrementalOperator` with
four verbs:

* :meth:`~IncrementalOperator.open`    — reset state, start a run;
* :meth:`~IncrementalOperator.advance` — absorb one chunk of input rows;
* :meth:`~IncrementalOperator.emit`    — produce the current answer;
* :meth:`~IncrementalOperator.close`   — release state, end the run.

A one-shot query is the degenerate stream — ``open``, one ``advance``
with the full input, one ``emit``, ``close`` — which is exactly what
:func:`run_once` does and what :class:`~repro.engine.executor.QueryExecutor`
runs every ``SELECT ... LIMIT k`` through.  A continuous subscription
(:mod:`repro.streaming`) drives the same contract once per tick, with the
window maintainers implementing ``advance`` as summary absorption instead
of buffering.  The invariant that makes the refactor safe: driving
:class:`SelectionOperator` with a single chunk is *bit-identical* to the
pre-incremental one-shot path, because ``emit`` runs the same fallback
walk over the same array.

:class:`SelectionOperator` runs that walk (:func:`repro.plan.walker.walk`
under the engine's failure policy) for every selection the engine runs,
exact or approximate, so the one-shot and streaming paths share it.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.errors import FaultError, InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device
from repro.plan import ApproxTopK, Fallback, Merge, PlanNode
from repro.plan.walker import FailurePolicy, walk


class IncrementalOperator:
    """Base class of the incremental execution contract.

    Subclasses override :meth:`advance` and :meth:`emit`; ``open`` and
    ``close`` bracket a run and may be overridden to manage state.  The
    base class enforces the protocol ordering (advance/emit only between
    open and close) so a mis-driven operator fails loudly instead of
    silently emitting stale state.
    """

    def __init__(self) -> None:
        self._opened = False

    def open(self) -> None:
        """Start a run: reset any per-run state."""
        self._opened = True

    def advance(self, chunk: np.ndarray) -> None:
        """Absorb one chunk of input rows."""
        raise NotImplementedError

    def emit(self, k: int, model_n: int | None = None):
        """Produce the current answer over everything advanced so far."""
        raise NotImplementedError

    def close(self) -> None:
        """End the run: release per-run state."""
        self._opened = False

    def _require_open(self, verb: str) -> None:
        if not self._opened:
            raise InvalidParameterError(
                f"{type(self).__name__}.{verb}() outside open()/close()"
            )


def _own_trace(node: PlanNode) -> bool:
    """Whether a stage's trace, not the query-level one, accounts it."""
    return (
        isinstance(node, (ApproxTopK, Merge))
        or getattr(node, "algorithm", "") == "radik"
    )


class SelectionOperator(IncrementalOperator):
    """The engine's top-k selection as an incremental operator.

    ``advance`` buffers chunks; ``emit`` walks the selection plan's
    :class:`~repro.plan.Fallback` alternatives over the buffered rows —
    each kernel stage gets ``fault_retries`` bounded retries on an
    injected device fault, a stage out of resources is skipped, and the
    terminal ``cpu-heap`` stage has no device to lose and answers in the
    same canonical order as every exact kernel.  ``emit`` returns
    the selected indices plus the operator's own trace for stages that
    model one (the approximate and sharded operators, and the adaptive
    radix select) — None means "account with the exact query-level
    trace".

    The functional selection is an implementation detail, not a modeled
    kernel; its launches are re-accounted by the query's own trace, so
    observation is suspended around it.
    """

    def __init__(
        self,
        plan: Fallback,
        device: DeviceSpec | None = None,
        flags: OptimizationFlags = FULL,
        fault_retries: int = 0,
    ):
        super().__init__()
        self.plan = plan
        self.device = device or get_device()
        self.flags = flags
        self._policy = FailurePolicy(
            attempts=fault_retries + 1,
            retry=(FaultError,),
            observe=False,
        )
        self._chunks: list[np.ndarray] = []

    def open(self) -> None:
        super().open()
        self._chunks = []

    def advance(self, chunk: np.ndarray) -> None:
        self._require_open("advance")
        self._chunks.append(np.asarray(chunk))

    def close(self) -> None:
        super().close()
        self._chunks = []

    def _buffered(self) -> np.ndarray:
        # One chunk passes through untouched: the one-shot path must hand
        # emit() the caller's exact array, keeping results bit-identical
        # to the pre-incremental executor.
        if len(self._chunks) == 1:
            return self._chunks[0]
        return np.concatenate(self._chunks)

    def emit(
        self, k: int, model_n: int | None = None
    ) -> tuple[np.ndarray, ExecutionTrace | None]:
        self._require_open("emit")
        plan = self.plan
        ranks = self._buffered()
        matched_model = model_n if model_n is not None else len(ranks)
        winner = plan.alternatives[0]
        span_attrs: dict = {"candidates": len(ranks)}
        if isinstance(winner, ApproxTopK):
            span_name = "phase:functional-approx-topk"
            span_attrs["buckets"] = winner.buckets
        elif isinstance(winner, Merge):
            span_name = "phase:functional-sharded-topk"
            span_attrs["shards"] = len(winner.inputs)
        else:
            span_name = "phase:functional-topk"
        with obs.span(span_name, category="phase", **span_attrs):
            result, node = walk(
                plan,
                ranks,
                k,
                self._policy,
                device=self.device,
                flags=self.flags,
                model_n=lambda node: matched_model if _own_trace(node) else None,
            )
        return result.indices, (result.trace if _own_trace(node) else None)


class TickInterpreter:
    """Drives an :class:`IncrementalOperator` chunk by chunk.

    The engine's execution loop, factored out of the one-shot executor:
    each :meth:`tick` advances the operator with one chunk and emits the
    current answer.  The one-shot path is :func:`run_once` — a stream of
    exactly one chunk; the streaming path (:mod:`repro.streaming`) calls
    :meth:`tick` once per arriving chunk, indefinitely.
    """

    def __init__(self, operator: IncrementalOperator):
        self.operator = operator
        self.ticks = 0
        self._open = False

    def __enter__(self) -> "TickInterpreter":
        self.operator.open()
        self._open = True
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if self._open:
            self.operator.close()
            self._open = False
        return False

    def tick(self, chunk: np.ndarray, k: int, model_n: int | None = None):
        """Advance one chunk and emit the current answer."""
        if not self._open:
            raise InvalidParameterError(
                "TickInterpreter.tick() outside its context"
            )
        self.operator.advance(chunk)
        self.ticks += 1
        return self.operator.emit(k, model_n)


def run_once(
    operator: IncrementalOperator,
    data: np.ndarray,
    k: int,
    model_n: int | None = None,
):
    """Run a one-shot query through the incremental contract.

    A stream of exactly one chunk: open, advance the full input, emit,
    close.  Every one-shot selection the engine executes goes through
    here, so batch queries and continuous subscriptions exercise the
    same operator code path.
    """
    with TickInterpreter(operator) as interpreter:
        return interpreter.tick(data, k, model_n)
