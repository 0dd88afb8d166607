"""Common interface for all top-k algorithms.

Every algorithm produces a :class:`TopKResult`, which couples

* the *functional* answer — the real top-k values (and row indices)
  computed with numpy on the actual input, and
* the *execution trace* — the hardware counters the equivalent GPU kernels
  would generate (:class:`repro.gpu.counters.ExecutionTrace`), from which
  :mod:`repro.gpu.timing` derives simulated time.

Scale substitution
------------------

Functional runs use whatever input size the caller provides (tests use
thousands of elements; benchmarks default to about a million).  The paper
evaluates at n = 2^29, far beyond what a Python reproduction can execute
functionally in reasonable time.  Algorithms therefore accept a ``model_n``
parameter: the trace is built *as if* the input had ``model_n`` elements,
while data-dependent quantities (radix-select survivor fractions, heap
insert rates, ...) are measured from the functional run.  For the paper's
workloads these fractions are scale-free (they derive from uniform order
statistics), so the extrapolated trace is faithful; deviations are noted in
EXPERIMENTS.md.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.timing import TraceTime, trace_time

#: dtypes the paper evaluates (Section 6.3).
SUPPORTED_DTYPES = (np.float32, np.float64, np.uint32, np.int32, np.uint64, np.int64)


@dataclass
class TopKResult:
    """The outcome of one top-k invocation."""

    values: np.ndarray
    indices: np.ndarray | None
    trace: ExecutionTrace
    algorithm: str
    k: int
    n: int
    model_n: int

    def simulated_time(self, device: DeviceSpec | None = None) -> TraceTime:
        """Simulated execution time of the trace on ``device``."""
        return trace_time(self.trace, device or get_device())

    def simulated_ms(self, device: DeviceSpec | None = None) -> float:
        """Simulated milliseconds (convenience for reports)."""
        return self.simulated_time(device).total_ms


def validate_topk_args(data: np.ndarray, k: int) -> None:
    """Shared argument validation for all algorithms.

    Enforced uniformly at every entry point (``topk``, the engine, the
    hybrid schedulers) so invalid configurations always raise
    :class:`InvalidParameterError` rather than a bare numpy ``TypeError``
    or ``IndexError`` from deep inside an algorithm.
    """
    if data.ndim != 1:
        raise InvalidParameterError("top-k expects a one-dimensional array")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidParameterError(
            f"k must be an integer, got {type(k).__name__}"
        )
    if k <= 0:
        raise InvalidParameterError(f"k must be at least 1, got {k}")
    if k > len(data):
        raise InvalidParameterError(
            f"k = {k} exceeds the input size n = {len(data)}"
        )
    if data.dtype.type not in SUPPORTED_DTYPES:
        supported = ", ".join(t.__name__ for t in SUPPORTED_DTYPES)
        raise InvalidParameterError(
            f"unsupported dtype {data.dtype}; supported: {supported}"
        )


def reference_topk(data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth top-k via full sort — the testing oracle.

    Returns (values, indices), values sorted descending, -0.0 equal to
    +0.0 and NaN last; ties go to the lower index (a stable argsort of the
    negated floats or complemented integers, independent of the kernels'
    key codec).  Every exact kernel returns exactly these rows and values;
    the oracle itself runs only in tests, benches and harnesses.
    """
    validate_topk_args(data, k)
    keys = -data if data.dtype.kind == "f" else ~data
    order = np.argsort(keys, kind="stable")
    indices = order[:k]
    return data[indices], indices


class TopKAlgorithm(abc.ABC):
    """Base class for the five GPU algorithms and the CPU baselines."""

    #: Registry / report name, e.g. ``"bitonic"`` or ``"radix-select"``.
    name: str = "abstract"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Observability: every concrete ``run`` override is wrapped so the
        # invocation emits an ``algorithm:<name>`` span with its kernel
        # launches as children (a no-op unless observation is enabled).
        run = cls.__dict__.get("run")
        if run is not None and not getattr(run, "__repro_traced__", False):
            from repro.observability.instrument import traced_algorithm

            cls.run = traced_algorithm(run)

    def __init__(self, device: DeviceSpec | None = None):
        self.device = device or get_device()

    @abc.abstractmethod
    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        """Compute the top-k (largest) elements of ``data``.

        ``model_n`` sets the input size the execution trace models; it
        defaults to ``len(data)`` (no extrapolation).
        """

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        """Whether the algorithm can run this configuration at all.

        Overridden by algorithms with hard resource limits (the per-thread
        heap's shared-memory capacity failure of Section 4.1).
        """
        return True

    def _result(
        self,
        values: np.ndarray,
        indices: np.ndarray | None,
        trace: ExecutionTrace,
        k: int,
        n: int,
        model_n: int | None,
    ) -> TopKResult:
        return TopKResult(
            values=values,
            indices=indices,
            trace=trace,
            algorithm=self.name,
            k=k,
            n=n,
            model_n=model_n or n,
        )
