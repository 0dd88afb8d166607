"""Physical query execution with the Section 5 top-k integration strategies.

For an ``ORDER BY expr [DESC] LIMIT k`` query the executor supports the
strategies compared in Section 6.8:

* ``"sort"``          — MapD's default: materialize the (rank, id) pairs
  that pass the filter / projection, fully radix-sort them, take k.
* ``"topk"``          — replace the sort with bitonic top-k, keeping the
  separate filter/projection kernel.
* ``"fused"``         — run the filter or ranking projection *inside* the
  SortReducer (the buffer-filler design of Section 5), eliminating the
  intermediate global write + read.

GROUP BY ... ORDER BY count queries run a hash-aggregation kernel first
and then apply the chosen top-k strategy to the per-group counts (query 4).

Functional results are exact (numpy); traces account the kernels each
strategy would launch, scaled to ``model_rows`` when the caller wants
paper-scale timings (250M tweets) from a smaller functional table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.bitonic.kernels import build_trace
from repro.bitonic.network import next_pow2
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.engine.operators import SelectionOperator, run_once
from repro.engine.sql import Query, parse
from repro.engine.table import Table
from repro.errors import (
    InvalidParameterError,
    ReproError,
    UnsupportedQueryError,
)
from repro.gpu import faults
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import TraceTime, trace_time
from repro.plan import (
    Fallback,
    Filter,
    PlanNode,
    Scan,
    build_fallback,
    network_k,
)

#: Key + row-id bytes moved per materialized candidate row (4-byte rank
#: value and 4-byte id, the (key, id) layout Section 6.6 recommends).
CANDIDATE_ROW_BYTES = 8

#: Bounded retries of the engine's internal top-k selection on an
#: injected device fault before it falls back to the CPU heap.
FUNCTIONAL_RETRIES = 2

STRATEGIES = ("sort", "topk", "fused")


@dataclass
class QueryResult:
    """A finished query: result columns plus the simulated execution trace."""

    columns: dict[str, np.ndarray]
    trace: ExecutionTrace
    strategy: str
    device: DeviceSpec
    num_input_rows: int
    num_result_rows: int
    #: The typed physical plan the query executed (None for legacy
    #: construction paths); EXPLAIN and tracing render this tree.
    plan: PlanNode | None = None

    def simulated_time(self) -> TraceTime:
        return trace_time(self.trace, self.device)

    def simulated_ms(self) -> float:
        return self.simulated_time().total_ms

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


class QueryExecutor:
    """Executes parsed queries against a table under a chosen strategy."""

    def __init__(
        self,
        table: Table,
        device: DeviceSpec | None = None,
        flags: OptimizationFlags = FULL,
        fault_retries: int = FUNCTIONAL_RETRIES,
        recall_target: float = 1.0,
        shards: int = 1,
    ):
        if fault_retries < 0:
            raise InvalidParameterError(
                f"fault_retries must be non-negative, got {fault_retries}"
            )
        if not 0.0 < recall_target <= 1.0:
            raise InvalidParameterError(
                f"recall_target must be in (0, 1], got {recall_target}"
            )
        if isinstance(shards, bool) or not isinstance(shards, (int, np.integer)):
            raise InvalidParameterError(
                f"shards must be an integer, got {type(shards).__name__}"
            )
        if shards < 1:
            raise InvalidParameterError(
                f"shards must be at least 1, got {shards}"
            )
        self.table = table
        self.device = device or get_device()
        self.flags = flags
        self.fault_retries = fault_retries
        self.recall_target = recall_target
        self.shards = int(shards)

    def sql(
        self,
        text: str,
        strategy: str = "fused",
        model_rows: int | None = None,
    ) -> QueryResult:
        """Parse and execute a SQL string."""
        return self.execute(parse(text), strategy, model_rows)

    def execute(
        self,
        query: Query,
        strategy: str = "fused",
        model_rows: int | None = None,
    ) -> QueryResult:
        if strategy not in STRATEGIES:
            raise UnsupportedQueryError(
                f"unknown strategy {strategy!r}; available: {STRATEGIES}"
            )
        if query.table != self.table.name:
            raise UnsupportedQueryError(
                f"query targets table {query.table!r} but executor holds "
                f"{self.table.name!r}"
            )
        if query.limit is not None and query.limit < 0:
            raise InvalidParameterError(
                f"LIMIT must be non-negative, got {query.limit}"
            )
        if model_rows is not None and model_rows <= 0:
            raise InvalidParameterError(
                f"model_rows must be positive, got {model_rows}"
            )
        model = model_rows or len(self.table)
        with obs.span(
            "query",
            category="engine",
            table=query.table,
            strategy=strategy,
            model_rows=model,
        ) as span:
            if query.group_by:
                result = self._execute_group_by(query, strategy, model)
            elif query.order_by is not None and query.limit is not None:
                result = self._execute_topk(query, strategy, model)
            else:
                result = self._execute_scan(query, model)
            # Attribute the query's kernel launches (one span each, with
            # simulated time) and publish engine metrics.
            from repro.observability.instrument import record_trace

            sim_ms = record_trace(result.trace, self.device)
            span.set(
                result_rows=result.num_result_rows,
                launches=result.trace.num_launches,
                simulated_ms=sim_ms,
            )
            if result.plan is not None:
                span.set(plan_fingerprint=result.plan.fingerprint())
            registry = obs.active_metrics()
            if registry is not None:
                registry.counter("engine.queries", strategy=result.strategy).inc()
                registry.counter("engine.input_rows").inc(result.num_input_rows)
                registry.counter("engine.result_rows").inc(result.num_result_rows)
        return result

    # -- plain scans ----------------------------------------------------

    def _execute_scan(self, query: Query, model_rows: int) -> QueryResult:
        mask = self._filter_mask(query)
        indices = np.flatnonzero(mask)
        if query.limit is not None:
            indices = indices[: query.limit]
        columns = self._project(query, indices)
        with faults.suspended():
            trace = ExecutionTrace()
            scan = trace.launch("scan-filter")
            width = self._scan_width(query)
            scan.add_global_read(float(model_rows) * width)
            selectivity = len(indices) / max(1, len(self.table))
            scan.add_global_write(
                float(model_rows) * selectivity * self.table.row_bytes()
            )
        plan = self._input_plan(query, model_rows)
        return QueryResult(
            columns, trace, "scan", self.device, len(self.table), len(indices),
            plan=plan,
        )

    # -- plan construction ----------------------------------------------

    def _input_plan(self, query: Query, model_rows: int) -> PlanNode:
        """The Scan(+Filter) subtree every query plan is rooted on."""
        try:
            width = self._scan_width(query)
        except ReproError:
            # Grouped queries order by aggregate aliases that are not
            # table columns; the scan width is then not a plan property.
            width = None
        node: PlanNode = Scan(
            source=self.table.name,
            rows=model_rows,
            dtype="float32",
            width_bytes=width,
        )
        if query.where is not None:
            node = Filter(child=node, predicate=str(query.where))
        return node

    def _selection_plan(
        self,
        query: Query,
        strategy: str,
        model_rows: int,
        matched_model: int,
        k: int,
        effective_recall: float,
        approx_config,
        expected_recall: float | None,
    ) -> Fallback:
        """The query's top-k selection as an explicit Fallback plan.

        The chain mirrors the engine's fault posture exactly: the chosen
        operator (the approximate bucketed selection when planned, the
        partition-parallel Merge when the executor holds multiple shards,
        the bitonic network otherwise), anchored on the CPU heap —
        bounded kernel retries happen *within* a stage, the heap is the
        terminal stage that cannot lose a device.  Sharding applies only
        to exact single-key top-k strategies: approximate plans and the
        full-sort baseline stay single-device.
        """
        num_keys = len(query.order_by_keys) if query.order_by_keys else 1
        ranked: list[tuple[str, float | None]] = []
        if approx_config is not None:
            ranked.append(("approx-bucket", None))
        else:
            kernel = "bitonic"
            if strategy == "topk" and num_keys == 1:
                kernel = self._exact_kernel(matched_model, k)
            ranked.append((kernel, None))
            if kernel != "bitonic":
                # The bitonic network stays in the chain: a radix-planned
                # selection degrades through it before the CPU heap.
                ranked.append(("bitonic", None))
        fallback = build_fallback(
            ranked,
            n=matched_model,
            k=k,
            dtype="float32",
            recall_target=effective_recall,
            approx_config=approx_config,
            expected_recall=expected_recall,
            terminal_cpu=True,
            child=self._input_plan(query, model_rows),
        )
        if (
            self.shards > 1
            and approx_config is None
            and strategy in ("topk", "fused")
            and num_keys == 1
        ):
            from repro.sharding.partition import build_sharded_plan

            merge = build_sharded_plan(
                matched_model,
                k,
                shards=min(self.shards, matched_model),
                dtype="float32",
                algorithm="bitonic",
                source=self.table.name,
            )
            fallback = Fallback(alternatives=(merge, *fallback.alternatives))
        return fallback

    def _exact_kernel(self, n: int, k: int) -> str:
        """The exact selection kernel of the ``"topk"`` strategy.

        Bitonic in the paper's regime; the RadiK-style adaptive radix
        select once the radix family overtakes the network at model
        scale (large k).  Only the separate-kernel strategy consults the
        cost models: ``"fused"`` is inherently bitonic (the Section 5
        buffer-filler is a rewrite of the SortReducer) and ``"sort"`` is
        the full-sort baseline.
        """
        from repro.costmodel.bitonic_model import BitonicModel
        from repro.costmodel.radik_model import RadiKModel

        dtype = np.dtype(np.float32)
        radik = RadiKModel(self.device)
        bitonic = BitonicModel(self.device)
        if not radik.supports(n, k, dtype):
            return "bitonic"
        if not bitonic.supports(n, k, dtype):
            return "radik"
        if radik.predict_seconds(n, k, dtype) < bitonic.predict_seconds(
            n, k, dtype
        ):
            return "radik"
        return "bitonic"

    # -- ORDER BY ... LIMIT k -------------------------------------------

    def _execute_topk(
        self, query: Query, strategy: str, model_rows: int
    ) -> QueryResult:
        mask = self._filter_mask(query)
        candidate_rows = np.flatnonzero(mask)
        k = min(query.limit, len(candidate_rows))
        keys = query.order_by_keys or [(query.order_by, query.order_desc)]
        selectivity = len(candidate_rows) / max(1, len(self.table))
        matched_model = max(1, int(round(model_rows * selectivity)))

        # An APPROX_TOPK clause (or the session's recall_target) opts the
        # selection into the bucketed approximate operator when the cost
        # model finds a configuration meeting the target that beats the
        # exact plan at model scale.  Multi-key orders and the full-sort
        # baseline strategy always stay exact.
        effective_recall = (
            query.recall_target
            if query.recall_target is not None
            else self.recall_target
        )
        approx_plan = None
        if (
            effective_recall < 1.0
            and k > 0
            and len(keys) == 1
            and strategy in ("topk", "fused")
        ):
            from repro.costmodel.approx_model import choose_config

            with faults.suspended():
                approx_plan = choose_config(
                    matched_model,
                    k,
                    effective_recall,
                    np.dtype(np.float32),
                    self.device,
                )
        with faults.suspended():
            plan = self._selection_plan(
                query,
                strategy,
                model_rows,
                matched_model,
                max(k, 1),
                effective_recall,
                approx_plan[0] if approx_plan is not None else None,
                approx_plan[2] if approx_plan is not None else None,
            )
        approx_trace: ExecutionTrace | None = None
        if k <= 0:
            result_rows = np.empty(0, dtype=np.int64)
        elif len(keys) == 1:
            ranks = self._rank_array(keys[0][0])
            if not keys[0][1]:
                ranks = -ranks
            candidate_ranks = ranks[mask].astype(np.float32)
            order, approx_trace = self._run_selection(
                plan, candidate_ranks, k, matched_model
            )
            result_rows = candidate_rows[order]
        else:
            # Multi-key lexicographic order (the KKV kernel of Section
            # 6.6); functional selection via a stable multi-key sort.
            sort_keys = []
            for expression, descending in keys:
                values = self._rank_array(expression)
                sort_keys.append(-values[mask] if descending else values[mask])
            order = np.lexsort(tuple(reversed(sort_keys)))[:k]
            result_rows = candidate_rows[order]
        columns = self._project(query, result_rows)

        # Trace construction is accounting, not device activity; the
        # query's injectable execution is the functional selection above.
        with faults.suspended():
            trace = self._selection_trace(
                query, strategy, model_rows, matched_model, k, approx_trace
            )
            if approx_trace is not None and approx_plan is not None:
                trace.notes["approx.recall_target"] = effective_recall
            self._record_calibration(plan, trace, matched_model, max(k, 1))
        return QueryResult(
            columns, trace, strategy, self.device, len(self.table),
            len(result_rows), plan=plan,
        )

    def _record_calibration(
        self, plan: Fallback, trace: ExecutionTrace, n: int, k: int
    ) -> None:
        """Feed the calibration loop one (predicted, observed) pair.

        A no-op unless a :mod:`repro.costmodel.calibration` store is
        captured in this context (``Session(calibration=store)``).  The
        prediction prices the plan's winning kernel at the modeled
        selection size with its Section 7 model; the observation is the
        simulated time of the whole query trace, so the fitted factor for
        an engine-fed kernel absorbs the pipeline's scan/materialize
        overhead alongside the selection itself — exactly the systematic
        gap a planner comparing kernels under the same pipeline needs
        corrected.  Winners without a predictive model (a sharded Merge,
        the approximate operator) are not sampled.
        """
        from repro.costmodel import calibration

        store = calibration.active_store()
        if store is None or plan is None or not plan.alternatives:
            return
        winner = plan.alternatives[0]
        kernel = getattr(winner, "algorithm", winner.kind)
        model = calibration.base_model_for(kernel, self.device)
        if model is None or not model.supports(n, k, np.dtype(np.float32)):
            return
        predicted_ms = model.predict_ms(n, k)
        observed_ms = trace_time(trace, self.device).total_ms
        calibration.record_sample(
            plan.fingerprint(), kernel, predicted_ms, observed_ms
        )

    # -- the plan interpreter -------------------------------------------

    def _run_selection(
        self,
        plan: Fallback,
        ranks: np.ndarray,
        k: int,
        matched_model: int,
    ) -> tuple[np.ndarray, ExecutionTrace | None]:
        """Run the selection through the incremental operator contract.

        A one-shot query is the degenerate stream: the
        :class:`~repro.engine.operators.SelectionOperator` is opened,
        advanced with the full candidate array as a single chunk, emitted
        once, and closed — bit-identical to walking the plan directly,
        and the same operator a continuous subscription drives per tick.
        """
        operator = SelectionOperator(
            plan,
            device=self.device,
            flags=self.flags,
            fault_retries=self.fault_retries,
        )
        return run_once(operator, ranks, k, model_n=matched_model)

    # -- trace embedding --------------------------------------------------

    def _fuse_scan_kernel(self, first, scan_width: int, model_rows: int,
                          name: str) -> None:
        """Rewrite an operator's first kernel into the Section 5
        buffer-filler: it scans the base columns instead of reading a
        materialized candidate array, staging every scanned row through
        shared memory once."""
        first.name = name
        first.global_bytes_read = float(model_rows) * scan_width
        first.add_shared(float(model_rows) * 4.0)

    def _materialize_kernel(
        self,
        trace: ExecutionTrace,
        query: Query,
        scan_width: int,
        model_rows: int,
        matched_rows: int,
        candidate_bytes_per_row: int,
    ) -> None:
        """The separate filter/projection kernel of the non-fused
        strategies: one full scan, one (rank, id) candidate write."""
        materialize = trace.launch(
            "filter-project" if query.where is not None else "project"
        )
        materialize.add_global_read(float(model_rows) * scan_width)
        materialize.add_global_write(
            float(matched_rows) * candidate_bytes_per_row
        )

    def _selection_trace(
        self,
        query: Query,
        strategy: str,
        model_rows: int,
        matched_rows: int,
        k: int,
        operator_trace: ExecutionTrace | None = None,
    ) -> ExecutionTrace:
        """Embed the query's top-k selection in its strategy pipeline.

        One accounting path for the exact and approximate operators:
        under "fused" the selection's first kernel becomes the Section 5
        buffer-filler (:meth:`_fuse_scan_kernel`); otherwise a
        filter/projection kernel materializes candidate rows first
        (:meth:`_materialize_kernel`).  ``operator_trace`` carries the
        approximate operator's own kernels; None means the exact pipeline
        (bitonic under "topk"/"fused", the radix-sort baseline under
        "sort").
        """
        scan_width = self._scan_width(query)
        trace = ExecutionTrace()
        if operator_trace is not None:
            candidate_bytes_per_row = CANDIDATE_ROW_BYTES
            first = operator_trace.kernels[0]
            if "sharding.shards" in operator_trace.notes:
                # Sharded selections always materialize: the scatter needs
                # per-shard candidate arrays, and the concurrent kernel's
                # directly-modeled seconds must not be rewritten into a
                # buffer-filler.
                self._materialize_kernel(
                    trace, query, scan_width, model_rows, matched_rows,
                    candidate_bytes_per_row,
                )
            elif strategy == "fused":
                self._fuse_scan_kernel(
                    first, scan_width, model_rows, f"fused-{first.name}"
                )
            else:
                self._materialize_kernel(
                    trace, query, scan_width, model_rows, matched_rows,
                    candidate_bytes_per_row,
                )
                first.global_bytes_read = (
                    float(matched_rows) * candidate_bytes_per_row
                )
            trace.extend(operator_trace)
            trace.notes["selectivity"] = matched_rows / model_rows
            return trace

        # One 4-byte rank per ORDER BY key plus the 4-byte row id
        # (the KV/KKV/KKKV row widths of Section 6.6).
        num_keys = max(1, len(query.order_by_keys) or 1)
        candidate_bytes_per_row = 4 * num_keys + 4
        padded_k = network_k(max(k, 1))
        if strategy == "fused":
            fused = build_trace(
                matched_rows,
                padded_k,
                candidate_bytes_per_row,
                self.flags,
                self.device,
            )
            self._fuse_scan_kernel(
                fused.kernels[0], scan_width, model_rows, "FusedSortReducer"
            )
            trace.extend(fused)
            trace.notes["selectivity"] = matched_rows / model_rows
            return trace

        self._materialize_kernel(
            trace, query, scan_width, model_rows, matched_rows,
            candidate_bytes_per_row,
        )
        if strategy == "topk":
            trace.extend(
                build_trace(
                    matched_rows,
                    padded_k,
                    candidate_bytes_per_row,
                    self.flags,
                    self.device,
                )
            )
            return trace
        # strategy == "sort": LSD radix sort over the candidate rows.
        candidate_bytes = float(matched_rows) * candidate_bytes_per_row
        for pass_index in range(4):
            kernel = trace.launch(f"sort-pass-{pass_index}")
            kernel.add_global_read(candidate_bytes)
            kernel.add_global_read(candidate_bytes)
            kernel.add_global_write(candidate_bytes)
        gather = trace.launch("gather-topk")
        gather.add_global_read(float(max(k, 1)) * candidate_bytes_per_row)
        return trace

    # -- GROUP BY ... ORDER BY count LIMIT k ----------------------------

    def _execute_group_by(
        self, query: Query, strategy: str, model_rows: int
    ) -> QueryResult:
        if len(query.group_by) != 1:
            raise UnsupportedQueryError("only single-column GROUP BY is supported")
        aggregate_items = [item for item in query.select if item.is_aggregate]
        if not aggregate_items:
            raise UnsupportedQueryError(
                "GROUP BY queries must select at least one aggregate"
            )
        group_column = query.group_by[0]
        mask = self._filter_mask(query)
        keys, codes = self.table.factorized(group_column)
        codes = codes[mask]
        counts = np.bincount(codes, minlength=len(keys))
        present = np.flatnonzero(counts)
        groups, counts = keys[present], counts[present]
        dense = np.zeros(len(keys), dtype=np.intp)
        dense[present] = np.arange(len(present))
        inverse = dense[codes]

        aggregates: dict[str, np.ndarray] = {}
        for item in aggregate_items:
            aggregates[item.alias] = self._aggregate(
                item, mask, inverse, counts, len(groups)
            )

        with faults.suspended():
            plan = build_fallback(
                [("bitonic", None)],
                n=len(groups),
                k=min(query.limit or 1, max(len(groups), 1)),
                dtype="float64",
                terminal_cpu=True,
                child=self._input_plan(query, model_rows),
            )
        if query.order_by is not None and query.limit is not None:
            rank = self._group_rank(query, groups, aggregates, group_column)
            if not query.order_desc:
                rank = -rank
            k = min(query.limit, len(groups))
            order, _ = self._run_selection(
                plan, rank.astype(np.float64), k, len(groups)
            )
        else:
            order = np.argsort(counts)[::-1]
        result = {group_column: groups[order]}
        for alias, values in aggregates.items():
            result[alias] = values[order]

        model_groups = max(
            1, int(round(len(groups) * model_rows / max(1, len(self.table))))
        )
        with faults.suspended():
            trace = ExecutionTrace()
            aggregate = trace.launch("hash-aggregate")
            aggregate.add_global_read(
                float(model_rows)
                * self.table.column(group_column).dtype.itemsize
            )
            aggregate.atomic_ops = float(model_rows)
            aggregate.add_global_write(
                float(model_groups) * CANDIDATE_ROW_BYTES
            )
            if query.limit is not None:
                if strategy in ("topk", "fused"):
                    trace.extend(
                        build_trace(
                            model_groups,
                            next_pow2(max(query.limit, 1)),
                            CANDIDATE_ROW_BYTES,
                            self.flags,
                            self.device,
                        )
                    )
                else:
                    group_bytes = float(model_groups) * CANDIDATE_ROW_BYTES
                    for pass_index in range(4):
                        kernel = trace.launch(f"sort-pass-{pass_index}")
                        kernel.add_global_read(2.0 * group_bytes)
                        kernel.add_global_write(group_bytes)
        return QueryResult(
            result, trace, strategy, self.device, len(self.table), len(order),
            plan=plan,
        )

    # -- helpers ---------------------------------------------------------

    def _aggregate(
        self,
        item,
        mask: np.ndarray,
        inverse: np.ndarray,
        counts: np.ndarray,
        num_groups: int,
    ) -> np.ndarray:
        """Evaluate one aggregate select item over the grouped rows."""
        if item.aggregate == "count":
            return counts
        values = self._rank_array(item.expression)[mask]
        if item.aggregate == "sum":
            return np.bincount(inverse, weights=values, minlength=num_groups)
        if item.aggregate == "avg":
            totals = np.bincount(inverse, weights=values, minlength=num_groups)
            return totals / counts
        extreme = np.full(
            num_groups, -np.inf if item.aggregate == "max" else np.inf
        )
        operator = np.maximum if item.aggregate == "max" else np.minimum
        # A NaN value makes its group's extreme NaN, as intended.
        with np.errstate(invalid="ignore"):
            operator.at(extreme, inverse, values)
        return extreme

    def _group_rank(
        self,
        query: Query,
        groups: np.ndarray,
        aggregates: dict[str, np.ndarray],
        group_column: str,
    ) -> np.ndarray:
        """The ORDER BY key of a grouped query: an aggregate alias or the
        group column itself."""
        from repro.engine.expressions import Column

        key = query.order_by
        if isinstance(key, Column):
            if key.name in aggregates:
                return np.asarray(aggregates[key.name], dtype=np.float64)
            if key.name == group_column:
                return groups.astype(np.float64)
        raise UnsupportedQueryError(
            "GROUP BY queries can only order by a selected aggregate alias "
            "or the grouping column"
        )

    def _rank_array(self, expression) -> np.ndarray:
        """Evaluate a ranking expression to a full-length float array.

        Constant expressions (``ORDER BY 1 + 1``) evaluate to scalars and
        are broadcast — every row ranks equally.
        """
        values = np.asarray(expression.evaluate(self.table), dtype=np.float64)
        if values.ndim == 0:
            values = np.full(len(self.table), float(values))
        return values

    def _filter_mask(self, query: Query) -> np.ndarray:
        if query.where is None:
            return np.ones(len(self.table), dtype=bool)
        mask = np.asarray(query.where.evaluate(self.table)).astype(bool)
        if mask.ndim == 0:
            # Constant predicates (WHERE 1 < 2) select all or nothing.
            mask = np.full(len(self.table), bool(mask))
        return mask

    def _scan_width(self, query: Query) -> int:
        """Bytes per input row the query's kernels must read."""
        referenced: set[str] = set()
        if query.where is not None:
            referenced |= query.where.referenced_columns()
        if query.order_by is not None:
            referenced |= query.order_by.referenced_columns()
        for item in query.select:
            if item.expression is not None:
                referenced |= item.expression.referenced_columns()
        if not referenced:
            referenced = {self.table.column_names[0]}
        return sum(
            self.table.column(name).dtype.itemsize for name in referenced
        )

    def _project(self, query: Query, rows: np.ndarray) -> dict[str, np.ndarray]:
        columns: dict[str, np.ndarray] = {}
        for item in query.select:
            if item.is_count:
                continue
            values = item.expression.evaluate(self.table)
            columns[item.alias] = np.asarray(values)[rows]
        return columns
