"""Partitioning rule: one query becomes N contiguous Scan -> TopK shards.

The rule is deliberately simple — contiguous, balanced row ranges — so a
shard's global row indices are recoverable from its local indices by
adding the range start, and the k-way merge's tie-breaking (lower global
index first) reproduces the single-device answer bit for bit.

``build_sharded_plan`` produces the plan-IR tree the planner emits and
the engine/registry execute: a :class:`~repro.plan.nodes.Merge` over one
``TopK(Scan)`` subtree per shard, each Scan's source carrying its row
range (``vector[0:1024)``), which is also what EXPLAIN renders.
"""

from __future__ import annotations

import re

import numpy as np

from repro.errors import InvalidParameterError
from repro.plan.nodes import Merge, Scan, TopK

#: ``source[start:stop)`` — the shard-range suffix of a partitioned Scan.
_RANGE = re.compile(r"\[(\d+):(\d+)\)$")


def _validate_shards(shards) -> int:
    if isinstance(shards, bool) or not isinstance(shards, (int, np.integer)):
        raise InvalidParameterError(
            f"shards must be an integer, got {type(shards).__name__}"
        )
    if shards < 1:
        raise InvalidParameterError(f"shards must be at least 1, got {shards}")
    return int(shards)


def partition_ranges(
    n: int, shards: int, weights: list[float] | None = None
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` row ranges for ``n`` rows.

    Without ``weights`` (or with all weights equal) the ranges are
    balanced: sizes differ by at most one row, the first ``n % shards``
    ranges getting the extra row.  With per-shard throughput ``weights``
    each range's size is proportional to its weight, rounded at the
    cumulative boundaries.  Either way every range is non-empty and the
    ranges tile ``[0, n)`` exactly.  Raises
    :class:`InvalidParameterError` for a non-integer or non-positive
    shard count, for weights that are not one positive finite value per
    shard, and when ``shards > n`` (a shard must hold at least one row).
    """
    shards = _validate_shards(shards)
    if n < 1:
        raise InvalidParameterError(f"cannot partition n = {n} rows")
    if shards > n:
        raise InvalidParameterError(
            f"cannot split n = {n} rows into {shards} shards; "
            f"every shard needs at least one row"
        )
    if weights is not None:
        if len(weights) != shards or not all(
            np.isfinite(weight) and weight > 0 for weight in weights
        ):
            raise InvalidParameterError(
                f"need {shards} positive finite shard weights, got {weights!r}"
            )
        if len(set(weights)) > 1:
            return _weighted_ranges(n, shards, weights)
    base, extra = divmod(n, shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _weighted_ranges(
    n: int, shards: int, weights: list[float]
) -> list[tuple[int, int]]:
    total = sum(weights)
    ranges: list[tuple[int, int]] = []
    start = 0
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        stop = round(n * cumulative / total) if index < shards - 1 else n
        # Keep this range non-empty and leave a row for each later one.
        stop = min(max(stop, start + 1), n - (shards - 1 - index))
        ranges.append((start, stop))
        start = stop
    return ranges


def shard_source(source: str, start: int, stop: int) -> str:
    """The partitioned Scan source label: ``source[start:stop)``."""
    return f"{source}[{start}:{stop})"


def parse_shard_range(source: str) -> tuple[int, int] | None:
    """The ``(start, stop)`` range of a partitioned Scan source, or None."""
    match = _RANGE.search(source)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def build_sharded_plan(
    n: int,
    k: int,
    *,
    shards: int,
    dtype: str = "float32",
    algorithm: str = "bitonic",
    source: str = "vector",
    predicted_seconds: float | None = None,
    per_shard_seconds: float | None = None,
) -> Merge:
    """The sharded plan tree: ``Merge`` over N partitioned ``Scan -> TopK``.

    ``algorithm`` is the per-shard inner kernel (the planner's winner at
    per-shard scale); ``source`` names the partitioned input (a table or
    the raw-vector sentinel), each shard's Scan carrying its row range.
    """
    ranges = partition_ranges(n, shards)
    inputs = []
    for start, stop in ranges:
        rows = stop - start
        inputs.append(
            TopK(
                child=Scan(
                    source=shard_source(source, start, stop),
                    rows=rows,
                    dtype=dtype,
                ),
                k=min(k, rows),
                n=rows,
                dtype=dtype,
                algorithm=algorithm,
                predicted_seconds=per_shard_seconds,
            )
        )
    return Merge(
        inputs=tuple(inputs),
        k=k,
        algorithm="sharded",
        predicted_seconds=predicted_seconds,
    )
