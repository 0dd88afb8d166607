"""Hybrid and adaptive top-k — the paper's stated future-work directions.

Two extensions beyond the paper's evaluated scope (its conclusion calls
out both): splitting one query across CPU and GPU, and adapting the
algorithm choice to the observed data distribution.
"""

from repro.hybrid.adaptive import AdaptiveTopK, SampleStatistics, measure_sample
from repro.hybrid.cpu_gpu import HybridSplit, HybridTopK

__all__ = [
    "AdaptiveTopK",
    "SampleStatistics",
    "measure_sample",
    "HybridSplit",
    "HybridTopK",
]
