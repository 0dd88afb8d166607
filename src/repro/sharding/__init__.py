"""``repro.sharding``: partition-parallel top-k across simulated devices.

The paper's top-k operator is *order-safe to split*: the global top-k
under the library's canonical total order (value descending, lower row
index first) is always contained in the union of per-partition top-k
results under the same order.  This package exploits that property
end-to-end:

* :mod:`~repro.sharding.partition` — split one large query into N
  contiguous ``Scan -> TopK`` subtrees joined by a
  :class:`~repro.plan.nodes.Merge` node;
* :mod:`~repro.sharding.merge` — the deterministic k-way merge that
  reproduces the exact global order from per-shard candidates;
* :mod:`~repro.sharding.executor` — :class:`ShardedTopK`, the
  scatter-gather executor running shards concurrently across N simulated
  devices (a thread pool over the GPU simulator) with per-shard fault
  injection and shard-loss redistribution;
* :mod:`~repro.sharding.bench` — the ``repro shard-bench`` scaling
  curve (1/2/4/8 shards) gated against a committed baseline in CI.
"""

from repro.sharding.bench import (
    ShardBenchReport,
    ShardWorkload,
    run_sharding_benchmark,
)
from repro.sharding.executor import DEFAULT_SHARDS, ShardedTopK
from repro.sharding.merge import merge_topk
from repro.sharding.partition import (
    build_sharded_plan,
    parse_shard_range,
    partition_ranges,
    shard_source,
)

__all__ = [
    "DEFAULT_SHARDS",
    "ShardBenchReport",
    "ShardWorkload",
    "ShardedTopK",
    "build_sharded_plan",
    "merge_topk",
    "parse_shard_range",
    "partition_ranges",
    "run_sharding_benchmark",
    "shard_source",
]
