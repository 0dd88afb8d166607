"""repro — reproduction of "Efficient Top-K Query Processing on Massively
Parallel Hardware" (Shanbhag, Pirk, Madden; SIGMOD 2018).

Quickstart::

    import numpy as np
    from repro import topk

    values = np.random.default_rng(0).random(1 << 20, dtype=np.float32)
    result = topk(values, k=32)
    print(result.values, result.algorithm, result.simulated_ms())

Package map
-----------

* :mod:`repro.core` — public ``topk`` API and the cost-model planner.
* :mod:`repro.bitonic` — bitonic top-k, the paper's contribution.
* :mod:`repro.algorithms` — the baseline algorithms (sort, per-thread
  heaps, radix select, bucket select).
* :mod:`repro.cpu` — CPU baselines (STL-style and hand-optimized priority
  queues, CPU bitonic top-k).
* :mod:`repro.gpu` — the simulated GPU substrate (devices, bank conflicts,
  occupancy, timing, micro SIMT executor).
* :mod:`repro.costmodel` — the Section 7 predictive cost models.
* :mod:`repro.engine` — a small columnar query engine with fused top-k
  operators (the MapD integration study).
* :mod:`repro.data` — workload generators.
* :mod:`repro.bench` — the benchmark harness regenerating every figure.
* :mod:`repro.resilience` — fault-tolerant execution (retries, fallback
  chains, result verification, the chaos suite) over the deterministic
  fault injector in :mod:`repro.gpu.faults`.
"""

from repro.algorithms.base import TopKResult, reference_topk
from repro.core.batched import batched_topk
from repro.core.chunked import chunked_topk
from repro.core.filtered import percentile, topk_where
from repro.core.planner import PlanChoice, TopKPlanner
from repro.core.topk import bottomk, topk
from repro.hybrid.adaptive import AdaptiveTopK
from repro.errors import (
    DeviceLostError,
    FaultError,
    InvalidParameterError,
    KernelTimeoutError,
    MemoryCorruptionError,
    ReproError,
    ResourceExhaustedError,
    SimulationError,
    TransferError,
    UnsupportedQueryError,
)
from repro.gpu.device import DeviceSpec, get_device, list_devices
from repro.gpu.faults import FaultInjector, FaultPlan, inject
from repro.resilience import (
    ResilientExecutor,
    RetryPolicy,
    resilient_topk,
)

__version__ = "1.0.0"

__all__ = [
    "TopKResult",
    "reference_topk",
    "PlanChoice",
    "TopKPlanner",
    "bottomk",
    "topk",
    "batched_topk",
    "chunked_topk",
    "percentile",
    "topk_where",
    "AdaptiveTopK",
    "DeviceLostError",
    "FaultError",
    "InvalidParameterError",
    "KernelTimeoutError",
    "MemoryCorruptionError",
    "ReproError",
    "ResourceExhaustedError",
    "SimulationError",
    "TransferError",
    "UnsupportedQueryError",
    "DeviceSpec",
    "get_device",
    "list_devices",
    "FaultInjector",
    "FaultPlan",
    "inject",
    "ResilientExecutor",
    "RetryPolicy",
    "resilient_topk",
    "__version__",
]
