"""The library's public top-k entry point.

    >>> from repro import topk
    >>> result = topk(values, k=32)                     # auto-planned
    >>> result = topk(values, k=32, algorithm="bitonic")
    >>> result = topk(values, k=32, largest=False)      # bottom-k

All the algorithms natively find the *largest* k; bottom-k is served by
order-reversing the keys (negating floats / complementing integers), which
costs one elementwise pass — the same trick a database projection would
apply.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKResult, validate_topk_args
from repro.algorithms.registry import create, list_algorithms
from repro.core.planner import TopKPlanner
from repro.costmodel.base import UNIFORM_FLOAT, WorkloadProfile
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device
from repro.plan import Fallback, TopK
from repro.plan.walker import FailurePolicy, walk


def _order_reversed(values: np.ndarray) -> np.ndarray:
    """Keys whose ascending order is the descending order of ``values``."""
    if values.dtype.kind == "f":
        return -values
    if values.dtype.kind == "u":
        return np.iinfo(values.dtype).max - values
    if values.dtype.kind == "i":
        # Complement avoids the overflow of negating the dtype minimum.
        return -1 - values
    raise InvalidParameterError(f"cannot reverse order of dtype {values.dtype}")


def topk(
    values: np.ndarray,
    k: int,
    algorithm: str = "auto",
    largest: bool = True,
    device: DeviceSpec | None = None,
    model_n: int | None = None,
    profile: WorkloadProfile = UNIFORM_FLOAT,
    recall_target: float = 1.0,
) -> TopKResult:
    """Find the k largest (or smallest) elements of ``values``.

    Parameters
    ----------
    values:
        One-dimensional numpy array of a supported dtype (float32/64,
        int32/64, uint32/64).
    k:
        Number of results, 1 <= k <= len(values).
    algorithm:
        A registry name ("bitonic", "radix-select", "sort", "per-thread",
        "bucket-select", "per-thread-registers"), or "auto" to let the
        Section 7 cost models choose.
    largest:
        True for top-k (default), False for bottom-k.
    device:
        Simulated GPU profile; defaults to the paper's Titan X Maxwell.
    model_n:
        Input size the execution trace models (defaults to ``len(values)``;
        benchmarks pass the paper's 2^29).
    profile:
        Workload statistics for the "auto" planner.
    recall_target:
        Minimum acceptable recall for the "auto" planner.  The default 1.0
        restricts planning to the exact algorithms (bit-identical to the
        pre-approximate behaviour); below 1.0 the planner may pick the
        bucketed approximate operator when its analytic expected recall
        meets the target and its predicted time beats every exact plan.

    Returns
    -------
    TopKResult with ``values`` sorted in rank order (best first),
    ``indices`` into the input, and the simulated execution trace.
    """
    values = np.asarray(values)
    validate_topk_args(values, k)
    device = device or get_device()
    with obs.span(
        "topk",
        category="api",
        n=len(values),
        k=k,
        largest=largest,
        requested_algorithm=algorithm,
        device=device.name,
    ) as span:
        if algorithm == "auto":
            plan = TopKPlanner(device).choose(
                len(values), k, values.dtype, profile,
                recall_target=recall_target,
            )
            if span is not obs.NULL_SPAN:
                span.set(plan_fingerprint=plan.fingerprint())
            fallback = plan.root
        else:
            if algorithm not in list_algorithms():
                create(algorithm)  # the registry's typed "unknown" error
            fallback = Fallback(alternatives=(
                TopK(k=k, n=len(values), dtype=str(values.dtype),
                     algorithm=algorithm),
            ))
        # A runtime resource limit skips to the next candidate (a lone
        # requested algorithm surfaces it); device faults surface.
        keys = values if largest else _order_reversed(values)
        result, _ = walk(
            fallback, keys, k, FailurePolicy(), device=device, model_n=model_n
        )
        if not largest:
            # Map the reversed-key results back to the original values.
            result.values = values[result.indices].copy()
        if algorithm == "auto" and (model_n is None or model_n == len(values)):
            # Close the prediction loop: the plan priced the executed
            # kernel at exactly the traced size, so the pair calibrates.
            # (With a foreign model_n predicted and observed model
            # different inputs — no sample.)  A no-op unless a
            # calibration store is captured in this context.
            from repro.costmodel import calibration

            if calibration.active_store() is not None:
                predicted = dict(plan.candidates).get(result.algorithm)
                if predicted is not None:
                    calibration.record_sample(
                        plan.fingerprint(),
                        result.algorithm,
                        predicted * 1e3,
                        result.simulated_ms(device),
                    )
        span.set(algorithm=result.algorithm)
        registry = obs.active_metrics()
        if registry is not None:
            registry.counter("topk.api_calls", algorithm=result.algorithm).inc()
            registry.histogram("topk.k").observe(k)
    return result


def bottomk(
    values: np.ndarray,
    k: int,
    algorithm: str = "auto",
    device: DeviceSpec | None = None,
    model_n: int | None = None,
) -> TopKResult:
    """Convenience wrapper: the k smallest elements."""
    return topk(
        values, k, algorithm=algorithm, largest=False, device=device, model_n=model_n
    )
