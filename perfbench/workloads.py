"""The benchmark's three workloads and their answer checks.

Every workload builds its inputs from the seed in ``__init__``, before
anything is timed; the program under test only ever receives those
inputs.  ``setup`` is the program-side set-up the user pays once (the
benchmark times it several times and reports the median), ``run`` drives
the front door in a closed loop, and ``check`` compares every recorded
answer with the canonical order (value descending, lower row first).

* ``sql-mix`` — one analyst calling ``Session.sql``: the paper's Q1–Q4
  with the fused strategy, plus a minority of RadiK (``strategy="topk"``
  at LIMIT >= 1024) and ``APPROX_TOPK`` queries; a quarter go to a
  two-shard session.  The functional bitonic kernel does most of the work.
* ``serve-zipf`` — library callers of ``TopKServer.submit`` with raw
  vectors in waves of 8 outstanding requests, shapes drawn Zipf-skewed
  from a 1024-shape catalogue against a 256-entry plan cache.  Mostly
  serving machinery: plan cache, batcher and the fused batched kernel.
* ``stream-window`` — one standing ``Subscription`` ticked with
  pre-generated chunks.  Summary merges and trace pricing; no planner,
  cache or functional bitonic kernel runs, so it is the bypass workload.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import reference_topk
from repro.data.stream import stream_chunk
from repro.engine import Session, generate_tweets, time_threshold_for_selectivity
from repro.errors import ReproError
from repro.serving import TopKServer
from repro.streaming import Subscription


@dataclass
class Op:
    """One front-door operation as the benchmark saw it."""

    index: int
    latency_ms: float
    #: The program's answer, or None when the operation raised.
    answer: object = None
    error: str | None = None
    sim_ms: float | None = None
    #: ``time.perf_counter()`` when the op completed (or was refused).
    ended: float = 0.0


@dataclass
class RunLog:
    #: In completion order.
    ops: list[Op]
    wall_s: float
    extra: dict = field(default_factory=dict)
    #: ``time.perf_counter()`` when the run began.
    started: float = 0.0


@dataclass
class Check:
    """Outcome of checking a run's answers."""

    #: Positions (in the run's op list) of wrong answers.
    wrong: list[int] = field(default_factory=list)
    #: Exact answers that differ from the canonical order only in the
    #: order or choice of rows tied on value.
    tie_order: int = 0
    recalls: list[float] = field(default_factory=list)

    def record(self, position: int, verdict: str) -> None:
        if verdict == "wrong":
            self.wrong.append(position)
        elif verdict == "tie-order":
            self.tie_order += 1


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        if isinstance(array, str):
            digest.update(array.encode())
        else:
            array = np.ascontiguousarray(array)
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def canonical_order(rank: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions sorted by (rank descending, row ascending)."""
    return np.lexsort((rows, -rank))


def compare_exact(got_rows, got_values, want_rows, want_values, value_of) -> str:
    """Compare an exact answer with the canonical one.

    Returns ``"exact"`` when rows and values match bit for bit,
    ``"tie-order"`` when the values match bit for bit and the rows differ
    only among rows tied on value, and ``"wrong"`` otherwise.  Rows must
    be distinct and hold the values they are returned with
    (``value_of(rows)``); every row ranked strictly above the k-th value
    must be the canonical one.
    """
    got_rows = np.asarray(got_rows)
    if len(got_rows) != len(want_rows) or not np.array_equal(got_values, want_values):
        return "wrong"
    if np.array_equal(got_rows, want_rows):
        return "exact"
    if len(np.unique(got_rows)) != len(got_rows):
        return "wrong"
    if not np.array_equal(value_of(got_rows), got_values):
        return "wrong"
    above = np.asarray(want_values) != want_values[-1]
    if not np.array_equal(np.sort(got_rows[above]), np.sort(np.asarray(want_rows)[above])):
        return "wrong"
    return "tie-order"


def duplicate_last(rows: np.ndarray) -> np.ndarray:
    """A copy of ``rows`` whose first entry repeats the last one."""
    rows = np.array(rows)
    rows[0] = rows[-1]
    return rows


def tie_aware_recall(rank: np.ndarray, chosen: np.ndarray, k: int) -> float:
    """Share of the true top-k an approximate answer found.

    Rows tied with the k-th value are interchangeable, so they count up
    to the number of tied slots the exact answer has.
    """
    kth = np.partition(rank, len(rank) - k)[len(rank) - k]
    got = rank[chosen]
    tied_slots = k - int(np.count_nonzero(rank > kth))
    hits = int(np.count_nonzero(got > kth))
    hits += min(int(np.count_nonzero(got == kth)), tied_slots)
    return hits / k


def check_approximate(
    data: np.ndarray, chosen: np.ndarray, values: np.ndarray, k: int
) -> bool:
    """Shape check of an approximate answer: k distinct in-range indices
    whose returned values equal the input at those indices."""
    chosen = np.asarray(chosen)
    return (
        len(chosen) == k
        and len(np.unique(chosen)) == k
        and chosen.min() >= 0
        and chosen.max() < len(data)
        and np.array_equal(values, data[chosen])
    )


class Workload:
    name = ""
    #: Ops per slice of a timed run: a stretch that does the same work in
    #: every slice, so slices can be compared and their median taken.
    slice_ops = 0

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def run(self, state, seconds: float | None, max_ops: int | None) -> RunLog:
        raise NotImplementedError

    def check(self, log: RunLog) -> Check:
        raise NotImplementedError

    def exact(self, op: Op) -> bool:
        """Whether the op's answer is checked bit for bit."""
        raise NotImplementedError

    def corrupt(self, op: Op) -> None:
        """Make one exact recorded answer wrong (the harness self-test)."""
        raise NotImplementedError


def _keep_going(count: int, deadline: float | None, max_ops: int | None) -> bool:
    if max_ops is not None and count >= max_ops:
        return False
    return deadline is None or time.perf_counter() < deadline


# -- sql-mix --------------------------------------------------------------

#: The paper's dataset size; traces are priced at this scale.
MODEL_ROWS = 250_000_000
TABLE_ROWS = 1 << 17
SELECTIVITIES = (0.1, 0.25, 0.5, 0.75, 0.9)
LIMITS = (16, 32, 64, 128, 256)
RADIK_LIMITS = (1024, 2048, 4096)
RANK_EXPRESSIONS = {
    "retweet": "retweet_count",
    "likes": "likes_count",
    "blend": "retweet_count + 0.5 * likes_count",
}
#: Pre-built decks; a run longer than this many decks starts over.
SQL_DECKS = 400


@dataclass(frozen=True)
class SqlSpec:
    kind: str  # q1 | q2 | q3 | q4 | radik | approx
    limit: int
    rank: str = "retweet"
    selectivity: float | None = None
    sharded: bool = False

    @property
    def strategy(self) -> str:
        return "topk" if self.kind == "radik" else "fused"

    def text(self) -> str:
        rank = RANK_EXPRESSIONS[self.rank]
        if self.kind == "q4":
            return (
                "SELECT uid, COUNT() AS num_tweets FROM tweets "
                f"GROUP BY uid ORDER BY num_tweets DESC LIMIT {self.limit}"
            )
        if self.kind == "approx":
            return (
                f"SELECT id, {rank} AS v FROM tweets ORDER BY {rank} DESC "
                f"LIMIT {self.limit} APPROX_TOPK(0.95)"
            )
        where = ""
        if self.kind == "q1":
            threshold = time_threshold_for_selectivity(self.selectivity)
            where = f"WHERE tweet_time < {threshold} "
        elif self.kind == "q3":
            where = "WHERE lang = 'en' OR lang = 'es' "
        return f"SELECT id FROM tweets {where}ORDER BY {rank} DESC LIMIT {self.limit}"


def sql_deck(rotation: int, rng: np.random.Generator) -> list[SqlSpec]:
    """One shuffled deck of 22 queries with the mix's fixed proportions.

    Every deck holds each Q1 selectivity, each Q2/Q3 LIMIT, two Q4
    LIMITs, the three RadiK LIMITs and two approximate queries; two of
    each of Q1, Q2 and Q3 go to the sharded session.  ``rotation`` (0-4)
    pairs Q1 selectivities with LIMITs and picks the sharded members and
    the Q4 and approximate LIMITs and ranks, so any five consecutive decks
    do the same work; ``rng`` only orders the deck.  The cheap kinds
    (RadiK, Q4, approximate) stay well under half of the deck, so the
    median latency falls inside the bitonic queries' range rather than
    in the gap below it.
    """

    def limit(i: int) -> int:
        return LIMITS[(i + rotation) % len(LIMITS)]

    sharded = {rotation, (rotation + 2) % len(LIMITS)}
    specs = [
        SqlSpec("q1", limit(i), selectivity=selectivity, sharded=i in sharded)
        for i, selectivity in enumerate(SELECTIVITIES)
    ]
    specs += [
        SqlSpec("q2", limit, rank="blend", sharded=i in sharded)
        for i, limit in enumerate(LIMITS)
    ]
    specs += [SqlSpec("q3", limit, sharded=i in sharded) for i, limit in enumerate(LIMITS)]
    specs += [SqlSpec("q4", limit(i)) for i in range(2)]
    specs += [SqlSpec("radik", limit, rank="likes") for limit in RADIK_LIMITS]
    ranks = tuple(RANK_EXPRESSIONS)
    specs += [
        SqlSpec("approx", limit(2 + i), rank=ranks[(rotation + i) % len(ranks)])
        for i in range(2)
    ]
    return [specs[i] for i in rng.permutation(len(specs))]


@dataclass
class SqlState:
    single: Session
    sharded: Session


class SqlMix(Workload):
    name = "sql-mix"
    #: Five decks: one turn of the fixed cost cycle.
    slice_ops = 5 * 22

    def __init__(self, seed: int):
        self.table = generate_tweets(TABLE_ROWS, seed)
        offset = int(np.random.default_rng([seed, SQL_DECKS]).integers(len(LIMITS)))
        self.specs = [
            spec
            for deck in range(SQL_DECKS)
            for spec in sql_deck(
                (deck + offset) % len(LIMITS), np.random.default_rng([seed, deck])
            )
        ]
        self.texts = [spec.text() for spec in self.specs]
        #: One deck of every query shape, run by ``setup`` so lazy imports
        #: and first-call costs land in set-up, not in the timed loop.
        self.warmup = sql_deck(offset, np.random.default_rng([seed, SQL_DECKS + 1]))
        self._orders: dict = {}

    def inputs_digest(self) -> str:
        columns = [self.table.column(name) for name in self.table.column_names]
        return _digest(*columns, "\n".join(self.texts))

    def setup(self) -> SqlState:
        state = SqlState(Session(), Session(shards=2))
        state.single.register(self.table)
        state.sharded.register(self.table)
        for spec in self.warmup:
            session = state.sharded if spec.sharded else state.single
            session.sql(spec.text(), strategy=spec.strategy, model_rows=MODEL_ROWS)
        return state

    def run(self, state: SqlState, seconds, max_ops) -> RunLog:
        ops: list[Op] = []
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        while _keep_going(len(ops), deadline, max_ops):
            index = len(ops) % len(self.specs)
            spec = self.specs[index]
            session = state.sharded if spec.sharded else state.single
            began = time.perf_counter()
            try:
                answer = session.sql(
                    self.texts[index], strategy=spec.strategy, model_rows=MODEL_ROWS
                )
                error = None
            except ReproError as failure:
                answer, error = None, type(failure).__name__
            ended = time.perf_counter()
            ops.append(Op(index, (ended - began) * 1e3, answer, error, ended=ended))
        wall = time.perf_counter() - start
        plans: dict[str, int] = {}
        for op in ops:
            if op.answer is not None:
                # Priced after the loop: simulated time is accounting the
                # caller of Session.sql does not wait for.
                op.sim_ms = op.answer.simulated_ms()
                winner = op.answer.plan.alternatives[0]
                name = getattr(winner, "algorithm", winner.kind)
                plans[name] = plans.get(name, 0) + 1
        return RunLog(ops, wall, {"plans": plans}, start)

    # -- the oracle --------------------------------------------------------

    def _rank(self, name: str) -> np.ndarray:
        """The ranking expression in float64, as the engine evaluates it."""
        retweets = self.table.column("retweet_count").astype(np.float64)
        likes = self.table.column("likes_count").astype(np.float64)
        return {"retweet": retweets, "likes": likes, "blend": retweets + 0.5 * likes}[name]

    def _mask(self, spec: SqlSpec) -> np.ndarray:
        if spec.kind == "q1":
            threshold = time_threshold_for_selectivity(spec.selectivity)
            return self.table.column("tweet_time") < threshold
        if spec.kind == "q3":
            names = np.asarray(self.table.dictionaries["lang"])
            return np.isin(names[self.table.column("lang")], ["en", "es"])
        return np.ones(len(self.table), dtype=bool)

    def _order(self, spec: SqlSpec):
        """The query's candidates in canonical order: (uids, counts) for
        Q4, else (rows, rank of every table row, NaN off the candidates)."""
        key = (spec.kind, spec.rank, spec.selectivity)
        if key not in self._orders:
            if spec.kind == "q4":
                groups, counts = np.unique(self.table.column("uid"), return_counts=True)
                order = canonical_order(counts.astype(np.float64), np.arange(len(groups)))
                self._orders[key] = (groups[order], counts[order])
            else:
                rows = np.flatnonzero(self._mask(spec))
                rank = np.full(len(self.table), np.nan, dtype=np.float32)
                rank[rows] = self._rank(spec.rank)[rows].astype(np.float32)
                self._orders[key] = (rows[canonical_order(rank[rows], rows)], rank)
        return self._orders[key]

    def check(self, log: RunLog) -> Check:
        result = Check()
        for position, op in enumerate(log.ops):
            if op.answer is None:
                continue
            spec = self.specs[op.index]
            columns = op.answer.columns
            if spec.kind == "approx":
                rank = self._rank(spec.rank)
                ids = columns["id"]
                if check_approximate(rank, ids, columns["v"], spec.limit):
                    result.recalls.append(
                        tie_aware_recall(rank.astype(np.float32), ids, spec.limit)
                    )
                else:
                    result.wrong.append(position)
                continue
            if spec.kind == "q4":
                groups, counts = self._order(spec)
                count_of = dict(zip(groups.tolist(), counts.tolist()))
                verdict = compare_exact(
                    columns["uid"], columns["num_tweets"],
                    groups[: spec.limit], counts[: spec.limit],
                    lambda uids: np.array([count_of.get(u, -1) for u in uids.tolist()]),
                )
            else:
                rows, rank = self._order(spec)

                def rank_of(chosen, rank=rank):
                    inside = (chosen >= 0) & (chosen < len(rank))
                    return np.where(inside, rank[np.where(inside, chosen, 0)], np.nan)

                ids = np.asarray(columns["id"])
                expected = rows[: spec.limit]
                verdict = compare_exact(
                    ids, rank_of(ids), expected, rank[expected], rank_of
                )
            result.record(position, verdict)
        return result

    def exact(self, op: Op) -> bool:
        return self.specs[op.index].kind != "approx"

    def corrupt(self, op: Op) -> None:
        columns = op.answer.columns
        name = "uid" if "uid" in columns else "id"
        columns[name] = duplicate_last(columns[name])


# -- serve-zipf -----------------------------------------------------------

CATALOGUE_SIZE = 1024
ZIPF_S = 1.1
SERVE_KS = (8, 16, 32, 64)
#: Requests the one generator thread submits per wave.
WINDOW = 8
#: Well above the window: the server resolves a future before it frees
#: that request's admission slot, so a bound near the window would shed
#: requests the closed loop never really had outstanding.
MAX_PENDING = 64
CACHE_CAPACITY = 256
#: Requests of each set-up, which start filling the plan cache.
SERVE_WARMUP = 256
#: Pre-built request sequence; a longer run starts over.
SERVE_REQUESTS = 1 << 15
BUFFER_ELEMENTS = 1 << 20
#: Longest wait for the server to answer a wave's requests.
DRAIN_TIMEOUT_S = 60.0
#: The catalogue's cost classes (network width, k, dtype, recall target)
#: per Zipf rank and the sequence of ranks requested come from this fixed
#: seed, so every workload seed hits the plan cache and forms batches the
#: same way; the workload seed draws each shape's exact n, the data and
#: where in the data each request's vector starts.
CATALOGUE_DESIGN_SEED = 20180610


@dataclass(frozen=True)
class Shape:
    n: int
    k: int
    dtype: str
    recall_target: float


def serve_catalogue(rng: np.random.Generator) -> list[Shape]:
    """1024 distinct shapes indexed by Zipf rank.

    n spans [512, 4096] in proportion to a uniform draw; a quarter are
    int32 and a tenth of the float32 ones ask for recall 0.9.
    """
    design = np.random.default_rng(CATALOGUE_DESIGN_SEED)
    widths = design.permutation([1024] * 146 + [2048] * 293 + [4096] * 585)
    ks = design.permutation(np.repeat(SERVE_KS, CATALOGUE_SIZE // len(SERVE_KS)))
    int32 = design.permutation([True] * 256 + [False] * 768)
    approx = np.zeros(CATALOGUE_SIZE, dtype=bool)
    approx[design.choice(np.flatnonzero(~int32), 102, replace=False)] = True
    seen: set[Shape] = set()
    shapes = []
    for rank in range(CATALOGUE_SIZE):
        low = 512 if widths[rank] == 1024 else widths[rank] // 2 + 1
        while True:
            shape = Shape(
                int(rng.integers(low, widths[rank] + 1)),
                int(ks[rank]),
                "int32" if int32[rank] else "float32",
                0.9 if approx[rank] else 1.0,
            )
            if shape not in seen:
                break
        seen.add(shape)
        shapes.append(shape)
    return shapes


@dataclass
class ServeState:
    server: TopKServer
    next_request: int = 0


class ServeZipf(Workload):
    name = "serve-zipf"
    slice_ops = 128 * WINDOW

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.catalogue = serve_catalogue(rng)
        self.buffers = {
            "float32": rng.standard_normal(BUFFER_ELEMENTS).astype(np.float32),
            # A narrow integer range makes ties common, exercising the
            # lower-row-first tie break.
            "int32": rng.integers(-1000, 1000, BUFFER_ELEMENTS).astype(np.int32),
        }
        weights = np.arange(1, CATALOGUE_SIZE + 1, dtype=np.float64) ** -ZIPF_S
        design = np.random.default_rng([CATALOGUE_DESIGN_SEED, 1])
        self.ranks = design.choice(CATALOGUE_SIZE, SERVE_REQUESTS, p=weights / weights.sum())
        lengths = np.array([self.catalogue[rank].n for rank in self.ranks])
        self.offsets = rng.integers(0, BUFFER_ELEMENTS - lengths + 1)
        self.requests = []
        for rank, offset in zip(self.ranks, self.offsets):
            shape = self.catalogue[rank]
            data = self.buffers[shape.dtype][offset : offset + shape.n]
            self.requests.append((data, shape))

    def inputs_digest(self) -> str:
        shapes = np.array(
            [(s.n, s.k, s.dtype == "int32", s.recall_target) for s in self.catalogue]
        )
        return _digest(
            self.buffers["float32"], self.buffers["int32"], self.ranks,
            self.offsets, shapes,
        )

    def setup(self) -> ServeState:
        state = ServeState(
            TopKServer(max_pending=MAX_PENDING, cache_capacity=CACHE_CAPACITY)
        )
        self.run(state, None, SERVE_WARMUP)
        return state

    def teardown(self, state: ServeState) -> None:
        state.server.close()

    def run(self, state: ServeState, seconds, max_ops) -> RunLog:
        """Closed loop in waves: the one generator thread submits WINDOW
        requests, then sleeps until every one of them has resolved.

        Sleeping on one event per wave, rather than refilling a slot as
        each request resolves, keeps the generator from waking (and asking
        for the GIL) while the dispatcher works, and hands the dispatcher
        the same backlog, hence the same batches, on every run.
        """
        server = state.server
        cache_before = server.plan_cache.stats()
        rejected_before = server.stats()["rejected"]
        lock = threading.Lock()
        wave_done = threading.Event()
        outstanding = 0
        ops: list[Op] = []
        finished: list[float] = []
        queue_waits: list[float] = []

        def settle(ended: float) -> None:
            nonlocal outstanding
            with lock:
                finished.append(ended)
                outstanding -= 1
                if outstanding == 0:
                    wave_done.set()

        def resolved(future, index: int, began: float) -> None:
            ended = time.perf_counter()
            try:
                error = future.exception()
                latency = (ended - began) * 1e3
                if error is None:
                    outcome = future.result()
                    answer = (outcome.values, outcome.indices)
                    ops.append(
                        Op(index, latency, answer, sim_ms=outcome.simulated_share_ms, ended=ended)
                    )
                    queue_waits.append(outcome.queue_wait_wall_ms)
                else:
                    ops.append(Op(index, latency, error=type(error).__name__, ended=ended))
            finally:
                # Always settle: a callback that raised would otherwise
                # stall the closed loop for good.
                settle(ended)

        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        submitted = 0
        while _keep_going(submitted, deadline, max_ops):
            wave = WINDOW if max_ops is None else min(WINDOW, max_ops - submitted)
            wave_done.clear()
            outstanding = wave
            for _ in range(wave):
                index = state.next_request % SERVE_REQUESTS
                state.next_request += 1
                submitted += 1
                data, shape = self.requests[index]
                began = time.perf_counter()
                try:
                    future = server.submit(
                        data, k=shape.k, recall_target=shape.recall_target
                    )
                except ReproError as failure:
                    # Shed at admission: a failed op, never a silent retry.
                    ops.append(Op(index, 0.0, None, type(failure).__name__, ended=began))
                    settle(began)
                    continue
                future.add_done_callback(
                    functools.partial(resolved, index=index, began=began)
                )
            if not wave_done.wait(DRAIN_TIMEOUT_S):
                raise RuntimeError("server stopped answering; outstanding requests lost")
        wall = max(finished, default=start) - start
        cache = server.plan_cache.stats()
        extra = {
            "cache_hits": cache["hits"] - cache_before["hits"],
            "cache_misses": cache["misses"] - cache_before["misses"],
            "cache_evictions": cache["evictions"] - cache_before["evictions"],
            "rejected": server.stats()["rejected"] - rejected_before,
            "queue_wait_ms": queue_waits,
        }
        return RunLog(ops, wall, extra, start)

    def check(self, log: RunLog) -> Check:
        result = Check()
        for position, op in enumerate(log.ops):
            if op.answer is None:
                continue
            data, shape = self.requests[op.index]
            got_values, got_indices = op.answer
            if shape.recall_target < 1.0:
                if check_approximate(data, got_indices, got_values, shape.k):
                    result.recalls.append(tie_aware_recall(data, got_indices, shape.k))
                else:
                    result.wrong.append(position)
                continue
            values, indices = reference_topk(data, shape.k)
            verdict = compare_exact(
                got_indices, got_values, indices, values,
                lambda chosen: data[chosen],
            )
            result.record(position, verdict)
        return result

    def exact(self, op: Op) -> bool:
        return self.requests[op.index][1].recall_target == 1.0

    def corrupt(self, op: Op) -> None:
        values, indices = op.answer
        op.answer = (values, duplicate_last(indices))


# -- stream-window --------------------------------------------------------

STREAM_K = 64
CHUNK_ROWS = 1 << 14
WINDOW_ROWS = 1 << 20
WINDOW_CHUNKS = WINDOW_ROWS // CHUNK_ROWS
#: Distinct pre-generated chunks, replayed in a cycle.  Larger than the
#: window, so the 64 chunks a window holds are always distinct rows.
STREAM_POOL = 3 * WINDOW_CHUNKS


@dataclass
class StreamState:
    subscription: Subscription
    ticks: int = 0


class StreamWindow(Workload):
    name = "stream-window"
    slice_ops = 1024

    def __init__(self, seed: int):
        # Generated here, not in the timed loop: driving the subscription
        # through ``Session.subscribe().step()`` would time the stream
        # generator as if it were window maintenance.
        self.pool = []
        for index in range(STREAM_POOL):
            chunk = stream_chunk(index, CHUNK_ROWS, seed)
            self.pool.append((chunk["score"], chunk["id"]))
        self._oracles: dict[int, tuple] = {}

    def inputs_digest(self) -> str:
        return _digest(*(array for chunk in self.pool for array in chunk))

    def setup(self) -> StreamState:
        state = StreamState(Subscription(STREAM_K, CHUNK_ROWS, window=WINDOW_ROWS))
        # Filling the window is set-up: until then a tick merges fewer
        # summaries than it does in the steady state.
        self.run(state, None, WINDOW_CHUNKS)
        return state

    def teardown(self, state: StreamState) -> None:
        state.subscription.close()

    def run(self, state: StreamState, seconds, max_ops) -> RunLog:
        subscription = state.subscription
        ops: list[Op] = []
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        while _keep_going(len(ops), deadline, max_ops):
            tick = state.ticks
            values, gids = self.pool[tick % STREAM_POOL]
            began = time.perf_counter()
            answer = subscription.tick(values, gids)
            ended = time.perf_counter()
            state.ticks += 1
            ops.append(
                Op(tick, (ended - began) * 1e3, (answer.values, answer.gids), None,
                   answer.simulated_ms, ended)
            )
        return RunLog(ops, time.perf_counter() - start, started=start)

    def _oracle(self, tick: int) -> tuple[np.ndarray, np.ndarray]:
        """The window's canonical top-k after ``tick``, by direct selection
        over the window's raw rows."""
        position = tick % STREAM_POOL
        if position not in self._oracles:
            chunks = [self.pool[(tick - back) % STREAM_POOL] for back in range(WINDOW_CHUNKS)]
            values = np.concatenate([chunk[0] for chunk in chunks])
            gids = np.concatenate([chunk[1] for chunk in chunks])
            k = STREAM_K
            threshold = np.partition(values, len(values) - k)[len(values) - k]
            candidates = np.flatnonzero(values >= threshold)
            order = candidates[canonical_order(values[candidates], gids[candidates])][:k]
            self._oracles[position] = (values[order], gids[order])
        return self._oracles[position]

    def check(self, log: RunLog) -> Check:
        result = Check()
        for position, op in enumerate(log.ops):
            if op.index < WINDOW_CHUNKS - 1:
                raise ValueError("checked ticks must have a full window")
            values, gids = self._oracle(op.index)
            got_values, got_gids = op.answer
            verdict = compare_exact(
                got_gids, got_values, gids, values,
                functools.partial(self._window_values, op.index),
            )
            result.record(position, verdict)
        return result

    def _window_values(self, tick: int, gids: np.ndarray) -> np.ndarray:
        """Raw values of the rows ``gids`` in the window after ``tick``
        (NaN for rows outside it)."""
        found = np.full(len(gids), np.nan, dtype=np.float32)
        for back in range(WINDOW_CHUNKS):
            values, chunk_gids = self.pool[(tick - back) % STREAM_POOL]
            inside = (gids >= chunk_gids[0]) & (gids <= chunk_gids[-1])
            found[inside] = values[gids[inside] - chunk_gids[0]]
        return found

    def exact(self, op: Op) -> bool:
        return True

    def corrupt(self, op: Op) -> None:
        values, gids = op.answer
        op.answer = (values, duplicate_last(gids))


WORKLOADS = {cls.name: cls for cls in (SqlMix, ServeZipf, StreamWindow)}
