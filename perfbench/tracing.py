"""Per-layer tracing for the benchmark's traced run.

The program carries no spans of its own for this benchmark, so the traced
run wraps the public functions of each layer from here.  A wrapper must be
installed in every namespace that holds the function: the program binds
names with ``from module import name``, so patching only the defining
module would miss ``repro.engine.executor.build_trace``,
``repro.streaming.window.merge_topk`` or
``repro.serving.batcher.batched_topk``.  ``install`` therefore replaces
the original object wherever a loaded ``repro`` module refers to it, and
``uninstall`` puts every original back and checks that no wrapper is left
anywhere, so a timed run never measures a wrapper.

Spans (name, start, end, parent, op id, thread) are kept in memory and
written out by the caller at the end.  An op is a span with no parent on
its thread: the front-door call on the client thread (``Session.sql``,
``TopKServer.submit``, ``Subscription.tick``), or a top-level call on a
thread the program runs itself (the serving dispatcher, the shard pool).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: (span name, "module:attribute" of the wrapped function or method).
#: Span names are the layer names the per-layer metrics are reported under.
LAYERS = (
    ("engine.session.sql", "repro.engine.session:Session.sql"),
    ("engine.sql.parse", "repro.engine.sql:parse"),
    ("engine.executor", "repro.engine.executor:QueryExecutor.execute"),
    ("engine.operators.emit", "repro.engine.operators:SelectionOperator.emit"),
    ("bitonic.apply_step", "repro.bitonic.operators:apply_step"),
    ("bitonic.build_trace", "repro.bitonic.kernels:build_trace"),
    ("core.batched.batched_topk", "repro.core.batched:batched_topk"),
    ("core.planner.choose", "repro.core.planner:TopKPlanner.choose"),
    ("plan.bind", "repro.plan.bind:bind_plan"),
    ("algorithms.radik", "repro.algorithms.radik:RadiKTopK.run"),
    ("algorithms.radik", "repro.algorithms.radik:batched_radik_topk"),
    ("approx.kernel", "repro.approx.bucketed:ApproxBucketTopK.run"),
    ("sharding.executor", "repro.sharding.executor:ShardedTopK.run"),
    ("sharding.merge_topk", "repro.sharding.merge:merge_topk"),
    ("gpu.trace_time", "repro.gpu.timing:trace_time"),
    ("serving.scheduler.submit", "repro.serving.scheduler:TopKServer.submit"),
    ("serving.batcher.plan", "repro.serving.batcher:CrossQueryBatcher.plan"),
    ("serving.plan_cache.bound", "repro.serving.plan_cache:PlanCache.bound"),
    ("serving.batcher.group", "repro.serving.batcher:CrossQueryBatcher.group"),
    ("serving.batcher.execute", "repro.serving.batcher:CrossQueryBatcher.execute"),
    ("streaming.subscription.tick", "repro.streaming.subscription:Subscription.tick"),
    ("streaming.window.advance", "repro.streaming.window:WindowTopK.advance"),
    ("streaming.window.emit", "repro.streaming.window:WindowTopK.emit"),
)

#: Wrapped without a span: records the real (unpadded) input length so
#: ``apply_step`` can count the padding elements it steps.
REAL_LENGTH_HOOK = "repro.bitonic.topk:BitonicTopK.run"

_MARK = "__perfbench_original__"


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _argument(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Installs the layer wrappers and records spans and counters."""

    def __init__(self) -> None:
        #: [id, name, start_ns, end_ns, parent id, op id, thread name]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _real_lengths(self) -> list:
        lengths = getattr(self._local, "lengths", None)
        if lengths is None:
            lengths = self._local.lengths = []
        return lengths

    def _count(self, **amounts) -> None:
        with self._lock:
            self.counters.update(amounts)

    def _enter(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
                parent_id, op = parent[0], parent[5]
            else:
                parent_id, op = None, self._ops
                self._ops += 1
            record = [
                len(self.spans), name, 0, 0, parent_id, op,
                threading.current_thread().name,
            ]
            self.spans.append(record)
        stack.append(record)
        record[2] = time.perf_counter_ns()
        return record

    def _exit(self, record: list) -> None:
        record[3] = time.perf_counter_ns()
        self._stack().pop()

    def _inside(self, name: str) -> bool:
        return any(record[1] == name for record in self._stack())

    # -- boundary counters -------------------------------------------------

    def _before(self, name: str, args, kwargs) -> None:
        if name == "bitonic.apply_step":
            values = _argument(args, kwargs, 0, "values")
            payload = kwargs.get("payload", args[2] if len(args) > 2 else None)
            lengths = self._real_lengths()
            padding = 0
            if payload is not None and lengths:
                padding = int(np.count_nonzero(payload >= lengths[-1]))
            self._count(
                apply_step_elements=len(values),
                compare_exchanges=len(values) // 2,
                padding_elements=padding,
            )
        elif name == "core.batched.batched_topk":
            matrix = _argument(args, kwargs, 0, "matrix")
            self._count(batched_rows=np.shape(matrix)[0])
        elif name == "sharding.merge_topk":
            values = _argument(args, kwargs, 0, "values")
            k = _argument(args, kwargs, 2, "k")
            self._count(merge_rows=len(values))
            if self._inside("streaming.window.advance") or self._inside(
                "streaming.window.emit"
            ):
                self._count(
                    window_merge_candidates=len(values),
                    window_merge_useful=min(k, len(values)),
                )
        elif name == "serving.batcher.execute":
            group = _argument(args, kwargs, 1, "group")
            self._count(
                executed_groups=1,
                executed_queries=len(group),
                batched_queries=len(group) if len(group) > 1 else 0,
            )

    # -- installation ------------------------------------------------------

    def _span_wrapper(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self._before(name, args, kwargs)
            record = self._enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._exit(record)

        setattr(wrapper, _MARK, function)
        return wrapper

    def _length_wrapper(self, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            lengths = self._real_lengths()
            lengths.append(len(_argument(args, kwargs, 1, "data")))
            try:
                return function(*args, **kwargs)
            finally:
                lengths.pop()

        setattr(wrapper, _MARK, function)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer in every ``repro`` namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [(name, target) for name, target in LAYERS]
        targets.append((None, REAL_LENGTH_HOOK))
        for name, target in targets:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            wrapper = (
                self._length_wrapper(original)
                if name is None
                else self._span_wrapper(name, original)
            )
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in _repro_modules():
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def uninstall(self) -> None:
        """Restore every original and assert that no wrapper survives."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module first imported while tracing bound a wrapper by name;
        # put the original back there too.
        for module in _repro_modules():
            for binding, value in list(vars(module).items()):
                if hasattr(value, _MARK):
                    setattr(module, binding, getattr(value, _MARK))
        leftovers = [
            f"{owner}.{binding}"
            for owner, binding, value in _bindings()
            if hasattr(value, _MARK)
        ]
        if leftovers:
            raise RuntimeError(f"wrappers left installed: {leftovers}")

    # -- analysis ----------------------------------------------------------

    def _self_ns(self) -> dict[int, int]:
        """Self time (ns) of every span: its duration minus the union of
        its children's intervals, so children that overlap each other or
        escape their parent are not hidden by the subtraction — they break
        the per-op closure check."""
        children: dict[int, list] = defaultdict(list)
        for record in self.spans:
            if record[4] is not None:
                children[record[4]].append(record)
        self_ns: dict[int, int] = {}
        for record in self.spans:
            start, end = record[2], record[3]
            covered, cursor = 0, start
            for child in sorted(children[record[0]], key=lambda c: c[2]):
                lo, hi = max(child[2], cursor), min(child[3], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            self_ns[record[0]] = (end - start) - covered
        return self_ns

    def layer_self_ns(self) -> Counter:
        """Total self time (ns) per layer, over every thread."""
        self_ns = self._self_ns()
        by_layer: Counter = Counter()
        for record in self.spans:
            by_layer[record[1]] += self_ns[record[0]]
        return by_layer

    def check_closure(self) -> int:
        """Assert that every op's layer self times plus its unattributed
        time (the root's own self time) equal the op's wall time.

        Returns the number of ops checked.
        """
        self_ns = self._self_ns()
        per_op: Counter = Counter()
        roots: dict[int, list] = {}
        for record in self.spans:
            if record[3] < record[2]:
                raise AssertionError(f"span {record[1]} never closed")
            if record[4] is None:
                roots[record[5]] = record
            else:
                per_op[record[5]] += self_ns[record[0]]
        for op, root in roots.items():
            wall = root[3] - root[2]
            unattributed = self_ns[root[0]]
            if per_op[op] + unattributed != wall:
                raise AssertionError(
                    f"op {op} ({root[1]}): layer self {per_op[op]} ns + "
                    f"unattributed {unattributed} ns != wall {wall} ns"
                )
        return len(roots)

    def span_counts(self) -> Counter:
        return Counter(record[1] for record in self.spans)

    def write(self, path) -> None:
        """Write the spans as JSON lines (times in ns)."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "thread")
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _bindings():
    """Every (owner name, attribute, value) of the loaded ``repro`` modules
    and of the classes they define."""
    for module in _repro_modules():
        for binding, value in list(vars(module).items()):
            yield module.__name__, binding, value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, attribute in list(vars(value).items()):
                    yield value.__qualname__, member, attribute
