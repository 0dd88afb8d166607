"""Thread-based serving scheduler with admission control.

:class:`TopKServer` is the concurrency layer of ``repro.serving``: callers
submit queries from any thread and receive
:class:`concurrent.futures.Future` objects; a dispatcher thread drains the
pending queue, consults the :class:`~repro.serving.plan_cache.PlanCache`,
groups compatible queries through the
:class:`~repro.serving.batcher.CrossQueryBatcher`, and resolves the
futures.  Draining whatever has accumulated since the last dispatch is
what creates batches: under concurrent load many same-shape queries are
pending at once and leave as one fused launch.

Admission control is a hard bound on in-flight queries: past
``max_pending`` the server *sheds load* by raising a typed
:class:`~repro.errors.ResourceExhaustedError` at submit time instead of
growing an unbounded backlog — the standard overload contract of a
production serving tier.

Observability: the server owns (or adopts from its session) a
:class:`~repro.observability.MetricsRegistry` and publishes
``serving.submitted`` / ``serving.completed`` / ``serving.rejected`` /
``serving.failed`` counters, a ``serving.queue_depth`` gauge, and the plan
cache and batcher instruments.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from repro import observability as obs
from repro.algorithms.base import validate_topk_args
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.costmodel.base import UNIFORM_FLOAT, WorkloadProfile
from repro.errors import (
    InvalidParameterError,
    ResourceExhaustedError,
    ShutdownError,
)
from repro.gpu import faults
from repro.gpu.device import DeviceSpec, get_device
from repro.serving.batcher import (
    DEFAULT_MAX_BATCH,
    CrossQueryBatcher,
    QueryOutcome,
    ServingRequest,
)
from repro.serving.plan_cache import DEFAULT_CAPACITY, PlanCache

#: Default bound on in-flight queries before submissions are shed.
DEFAULT_MAX_PENDING = 1024


def check_capacity(pending: int, max_pending: int) -> None:
    """The global admission bound of every serving door."""
    if pending >= max_pending:
        raise ResourceExhaustedError(
            f"serving queue is full ({max_pending} queries pending); "
            f"shedding load"
        )


class TopKServer:
    """Concurrent top-k serving on top of a :class:`~repro.engine.Session`.

        >>> from repro.engine import Session, generate_tweets
        >>> session = Session(trace=True)
        >>> session.register(generate_tweets(1 << 14))
        >>> with session.serve() as server:
        ...     futures = [
        ...         server.submit(table="tweets", column="likes_count", k=10)
        ...         for _ in range(100)
        ...     ]
        ...     answers = [f.result() for f in futures]

    The server also accepts raw vectors (``server.submit(data, k=8)``) for
    workloads that bring their own payloads rather than querying a
    registered table.
    """

    def __init__(
        self,
        session=None,
        device: DeviceSpec | None = None,
        flags: OptimizationFlags = FULL,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_batch: int = DEFAULT_MAX_BATCH,
        cache_capacity: int = DEFAULT_CAPACITY,
        enable_cache: bool = True,
        enable_batching: bool = True,
        metrics: obs.MetricsRegistry | None = None,
        profile: WorkloadProfile = UNIFORM_FLOAT,
        auto_start: bool = True,
        max_shards: int = 1,
    ):
        if max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be at least 1, got {max_pending}"
            )
        self.session = session
        self.device = device or (
            session.device if session is not None else get_device()
        )
        self.flags = flags
        self.max_pending = max_pending
        self.enable_batching = enable_batching
        #: Metrics sink: an explicit registry, the session's (trace=True),
        #: or a private one — never None, so counters always accumulate.
        self.metrics = (
            metrics
            if metrics is not None
            else (
                session.metrics
                if session is not None and session.metrics is not None
                else obs.MetricsRegistry()
            )
        )
        self.plan_cache = PlanCache(
            device=self.device,
            capacity=cache_capacity,
            metrics=self.metrics,
            enabled=enable_cache,
            max_shards=max_shards,
        )
        self.batcher = CrossQueryBatcher(
            plan_cache=self.plan_cache,
            device=self.device,
            flags=flags,
            max_batch=max_batch if enable_batching else 1,
            metrics=self.metrics,
            profile=profile,
        )
        self._pending: deque[ServingRequest] = deque()
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        #: Admission slots held by the current drain's unresolved requests.
        self._in_flight = 0
        self._dispatching = False
        self._closed = False
        self._dispatcher: threading.Thread | None = None
        if auto_start:
            self.start()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "TopKServer":
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise InvalidParameterError("cannot start a closed server")
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-serving-dispatcher",
                    daemon=True,
                )
                self._dispatcher.start()
        return self

    def close(self) -> None:
        """Drain outstanding work and stop the dispatcher.

        A running dispatcher finishes the backlog before exiting.  If the
        dispatcher never started (``auto_start=False`` without
        :meth:`start`) — or died — queued futures would otherwise hang
        forever; they are failed with a typed
        :class:`~repro.errors.ShutdownError` instead, so every submitted
        future resolves exactly once.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work_ready.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
        with self._lock:
            abandoned = list(self._pending)
            self._pending.clear()
            self._idle.notify_all()
        for request in abandoned:
            self.metrics.counter("serving.failed").inc()
            self.metrics.counter("serving.abandoned").inc()
            if request.future is not None:
                request.future.set_exception(
                    ShutdownError(
                        "server shut down before this query was dispatched"
                    )
                )

    def __enter__(self) -> "TopKServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission -------------------------------------------------------

    def submit(
        self,
        data: np.ndarray | None = None,
        k: int = 1,
        table: str | None = None,
        column: str | None = None,
        recall_target: float = 1.0,
    ) -> Future:
        """Enqueue one top-k query; returns a Future of
        :class:`~repro.serving.batcher.QueryOutcome`.

        Either ``data`` (a 1-D vector) or ``table`` + ``column`` (resolved
        through the server's session — the ``ORDER BY column DESC LIMIT k``
        shape) must be provided.

        ``recall_target`` below 1.0 lets the plan cache route this query
        to the bucketed approximate operator when the cost model finds a
        configuration meeting the target; the plan-cache key and batch
        grouping both include it, so exact and approximate traffic never
        mix.

        Raises :class:`~repro.errors.ResourceExhaustedError` when the
        server is over its ``max_pending`` admission bound.
        """
        request = self._make_request(data, k, table, column, recall_target)
        request.submitted_sim_ms = self._sim_now_ms()
        return self._enqueue(request)

    def _enqueue(self, request: ServingRequest) -> Future:
        """Admit ``request`` under the lock and queue it for dispatch."""
        future: Future = Future()
        request.future = future
        request.submitted_wall = time.perf_counter()
        with self._lock:
            if self._closed:
                raise InvalidParameterError(
                    "cannot submit to a closed server"
                )
            try:
                self._admit(request)
            except ResourceExhaustedError:
                self.metrics.counter("serving.rejected").inc()
                raise
            self._pending.append(request)
            self.metrics.counter("serving.submitted").inc()
            self.metrics.gauge("serving.queue_depth").set(len(self._pending))
            self._work_ready.notify()
        return future

    def _admit(self, request: ServingRequest) -> None:
        """Admission, under the lock: the global in-flight bound."""
        check_capacity(len(self._pending) + self._in_flight, self.max_pending)

    def submit_many(self, requests) -> list[Future]:
        """Submit an iterable of ``(data, k)`` pairs; one Future each."""
        return [self.submit(data, k) for data, k in requests]

    def query(
        self,
        data: np.ndarray | None = None,
        k: int = 1,
        table: str | None = None,
        column: str | None = None,
        recall_target: float = 1.0,
    ) -> QueryOutcome:
        """Synchronous convenience: submit and wait for the answer."""
        return self.submit(data, k, table, column, recall_target).result()

    def flush(self) -> None:
        """Block until every submitted query has been resolved."""
        with self._idle:
            self._idle.wait_for(
                lambda: not self._pending and not self._dispatching
            )

    # -- request construction ---------------------------------------------

    def _make_request(
        self,
        data: np.ndarray | None,
        k: int,
        table: str | None,
        column: str | None,
        recall_target: float = 1.0,
    ) -> ServingRequest:
        if (data is None) == (table is None and column is None):
            raise InvalidParameterError(
                "provide either a data vector or table= and column="
            )
        if not 0.0 < recall_target <= 1.0:
            raise InvalidParameterError(
                f"recall_target must be in (0, 1], got {recall_target}"
            )
        if data is None:
            if self.session is None:
                raise InvalidParameterError(
                    "table/column queries need a server bound to a Session"
                )
            if table is None or column is None:
                raise InvalidParameterError(
                    "table queries need both table= and column="
                )
            data = self.session.table(table).column(column)
        data = np.asarray(data)
        validate_topk_args(data, k)
        return ServingRequest(
            data=data,
            k=int(k),
            injector=faults.active_injector(),
            recall_target=float(recall_target),
        )

    # -- dispatch ---------------------------------------------------------

    def _sim_now_ms(self) -> float:
        """The server's simulated clock: accumulated execution cost.

        A thread server has no event loop to keep simulated time; the
        monotone total of simulated milliseconds the batcher has executed
        is the natural analogue, and what queue-wait attribution and the
        SLO subclass's deadlines are measured against.
        """
        return float(self.batcher.simulated_ms_total)

    def _note_queue_wait(self, drained) -> None:
        """Record each drained request's submit→dispatch latency (both
        clocks) on the request and in the metrics registry."""
        now_wall = time.perf_counter()
        now_sim = self._sim_now_ms()
        for request in drained:
            if request.submitted_wall is not None:
                request.queue_wait_wall_ms = (
                    now_wall - request.submitted_wall
                ) * 1e3
            if request.submitted_sim_ms is not None:
                request.queue_wait_sim_ms = max(
                    0.0, now_sim - request.submitted_sim_ms
                )
            self.metrics.histogram("serving.queue_wait_wall_ms").observe(
                request.queue_wait_wall_ms
            )
            self.metrics.histogram("serving.queue_wait_sim_ms").observe(
                request.queue_wait_sim_ms
            )

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                self._work_ready.wait_for(
                    lambda: self._pending or self._closed
                )
                if not self._pending and self._closed:
                    return
                # Drain the whole backlog: everything that queued while the
                # previous dispatch executed becomes batching material now.
                drained = list(self._pending)
                self._pending.clear()
                self._in_flight = len(drained)
                self._dispatching = True
                self.metrics.gauge("serving.queue_depth").set(0)
            try:
                self._note_queue_wait(drained)
                self._serve(drained)
            finally:
                with self._lock:
                    self._in_flight = 0
                    self._dispatching = False
                    self._idle.notify_all()

    def _serve(self, drained: list) -> None:
        """Execute one drained backlog in arrival order, resolving every
        future.  The SLO server overrides this with its dispatch cycle."""
        for group, result in self.batcher.serve(drained):
            self._resolve(group, result)

    def _release(self, count: int) -> None:
        """Free ``count`` slots; called before their futures resolve."""
        with self._lock:
            self._in_flight -= count

    def _resolve(self, group, result) -> None:
        """Resolve ``group``'s futures with its outcomes, or fail them with
        the exception that failed the group (never the thread)."""
        self._release(len(group))
        if isinstance(result, Exception):
            self.metrics.counter("serving.failed").inc(len(group))
            for request in group:
                if request.future is not None:
                    request.future.set_exception(result)
            return
        self.metrics.counter("serving.completed").inc(len(group))
        for request, outcome in zip(group, result):
            if request.future is not None:
                request.future.set_result(outcome)

    # -- introspection ----------------------------------------------------

    @property
    def cache_enabled(self) -> bool:
        return self.plan_cache.enabled

    def stats(self) -> dict:
        """Aggregate serving statistics (cache, batcher, admission)."""
        with self._lock:
            pending = len(self._pending)
        return {
            "pending": pending,
            "max_pending": self.max_pending,
            "submitted": self.metrics.value("serving.submitted") or 0.0,
            "completed": self.metrics.value("serving.completed") or 0.0,
            "rejected": self.metrics.value("serving.rejected") or 0.0,
            "failed": self.metrics.value("serving.failed") or 0.0,
            "plan_cache": self.plan_cache.stats(),
            "batcher": self.batcher.stats(),
        }
