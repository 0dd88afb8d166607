"""Adaptive top-k — one of the paper's stated future-work directions.

An extension beyond the paper's evaluated scope (its conclusion calls it
out): adapting the algorithm choice to the observed data distribution.
The conclusion's other direction, splitting one query across CPU and GPU,
is a device group with a CPU entry in :class:`repro.sharding.ShardedTopK`.
"""

from repro.hybrid.adaptive import AdaptiveTopK, SampleStatistics, measure_sample

__all__ = [
    "AdaptiveTopK",
    "SampleStatistics",
    "measure_sample",
]
