"""Self-calibrating cost models: close the predict/observe loop.

The Section 7 models predict with *peak* bandwidths, so they underestimate
the simulated (achievable-bandwidth) measurements by a systematic gap —
the paper's Figure 17 quantifies it at 12-15% and PR 8's RadiK kernel
moved it again.  This module closes the loop the ROADMAP calls unbuilt:

* :class:`CalibrationStore` — records ``(plan fingerprint, kernel,
  predicted ms, observed ms)`` samples from the tracer on every executed
  query, and fits per-kernel multiplicative correction factors with a
  robust weighted-median-of-ratios estimator (exponential decay over
  sample age, a minimum-sample floor below which the factor stays 1.0).
  Fitting is explicit (:meth:`CalibrationStore.refit`); a refit that
  changes any factor bumps the store's ``epoch``, which the serving
  plan-cache folds into its request fingerprints so stale decisions are
  never served across a correction drift.
* :class:`CalibratedModel` — a :class:`~repro.costmodel.base.CostModel`
  wrapper multiplying a base model's prediction by its kernel's fitted
  factor.  ``TopKPlanner(calibrate=True)`` prices every candidate through
  one; the default ``calibrate=False`` never constructs them, so planner
  decisions (and the EXPLAIN goldens pinned in CI) stay bit-identical.
* :func:`q_error` — the planner-accuracy metric ``max(pred/obs,
  obs/pred)``; :func:`record_sample` publishes it per kernel to the
  active metrics registry as the ``planner.q_error`` summary (p50 / p95 /
  max in every snapshot).

Capture is scoped, not global: :func:`capturing` installs a store in a
contextvar (mirroring the observability layer's tracer/metrics scoping),
``Session(calibration=store)`` does it per engine query, and
``python -m repro calibrate`` replays a seeded workload end to end —
record, refit, report per-kernel Q-error before/after.  See
``docs/calibration.md``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro import observability as obs
from repro.costmodel.base import CostModel, UNIFORM_FLOAT, WorkloadProfile
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "CalibratedModel",
    "CalibrationSample",
    "CalibrationStore",
    "active_store",
    "base_model_for",
    "capturing",
    "q_error",
    "record_sample",
]

#: Tags every persisted store so stale files fail loudly instead of
#: silently fitting garbage.
STORE_FORMAT = "repro-calibration-store"
STORE_VERSION = 1

#: Exponential decay per step of sample age: the newest sample of a kernel
#: weighs 1.0, the one before it ``DECAY``, then ``DECAY ** 2``, ...  so a
#: drifted kernel re-converges within a few dozen queries.
DEFAULT_DECAY = 0.9

#: Below this many samples a kernel's factor stays 1.0 — one noisy query
#: must not swing planning decisions.
DEFAULT_MIN_SAMPLES = 5

#: Samples retained per kernel; older ones fall off (they would carry
#: negligible weight anyway and the store must stay bounded).
DEFAULT_WINDOW = 256


def q_error(predicted_ms: float, observed_ms: float) -> float:
    """The planner-accuracy metric: ``max(pred/obs, obs/pred)``.

    Symmetric (over- and under-estimation score the same) and
    multiplicative (1.0 = perfect, 2.0 = off by 2x in either direction) —
    the standard cardinality-estimation accuracy measure, applied here to
    cost predictions.  Both inputs must be positive: a zero-cost
    prediction or observation has no meaningful ratio.
    """
    predicted = float(predicted_ms)
    observed = float(observed_ms)
    if predicted <= 0.0 or observed <= 0.0:
        raise InvalidParameterError(
            "q_error needs positive predicted and observed times, got "
            f"predicted = {predicted}, observed = {observed}"
        )
    return max(predicted / observed, observed / predicted)


@dataclass(frozen=True)
class CalibrationSample:
    """One closed prediction loop: what the planner said vs what ran."""

    fingerprint: str
    kernel: str
    predicted_ms: float
    observed_ms: float

    @property
    def ratio(self) -> float:
        """Observed over predicted — the quantity the fitter medians."""
        return self.observed_ms / self.predicted_ms

    @property
    def q_error(self) -> float:
        return q_error(self.predicted_ms, self.observed_ms)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "kernel": self.kernel,
            "predicted_ms": self.predicted_ms,
            "observed_ms": self.observed_ms,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationSample":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            kernel=str(payload["kernel"]),
            predicted_ms=float(payload["predicted_ms"]),
            observed_ms=float(payload["observed_ms"]),
        )


def _weighted_median(values: list[float], weights: list[float]) -> float:
    """Smallest value whose cumulative weight reaches half the total.

    Deterministic (ties resolve to the lower value) and robust: a single
    wild outlier moves the estimate by at most one rank, where a weighted
    mean would chase it.
    """
    order = sorted(range(len(values)), key=lambda index: values[index])
    total = sum(weights)
    accumulated = 0.0
    for index in order:
        accumulated += weights[index]
        if accumulated >= total / 2.0:
            return values[index]
    return values[order[-1]]


class CalibrationStore:
    """Samples in, per-kernel correction factors out.

    ``record`` only accumulates; ``refit`` is the explicit fitting step
    (callers decide the cadence — the ``repro calibrate`` replay refits
    once at the end, a server would refit between batches).  A refit that
    changes any factor bumps ``epoch``; unchanged refits do not, so
    plan-cache keys (which include the epoch) stay stable under a steady
    workload.
    """

    def __init__(
        self,
        decay: float = DEFAULT_DECAY,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        window: int = DEFAULT_WINDOW,
    ):
        if not 0.0 < decay <= 1.0:
            raise InvalidParameterError(
                f"decay must be in (0, 1], got {decay}"
            )
        if min_samples < 1:
            raise InvalidParameterError(
                f"min_samples must be at least 1, got {min_samples}"
            )
        if window < min_samples:
            raise InvalidParameterError(
                f"window ({window}) must hold at least min_samples "
                f"({min_samples})"
            )
        self.decay = float(decay)
        self.min_samples = int(min_samples)
        self.window = int(window)
        self.epoch = 0
        self._samples: dict[str, list[CalibrationSample]] = {}
        self._factors: dict[str, float] = {}

    # -- recording --------------------------------------------------------

    def record(self, sample: CalibrationSample) -> None:
        """Append one sample; oldest falls off past the window."""
        if sample.predicted_ms <= 0.0 or sample.observed_ms <= 0.0:
            raise InvalidParameterError(
                "calibration samples need positive predicted and observed "
                f"times, got {sample}"
            )
        history = self._samples.setdefault(sample.kernel, [])
        history.append(sample)
        if len(history) > self.window:
            del history[: len(history) - self.window]

    def samples(self, kernel: str | None = None) -> list[CalibrationSample]:
        if kernel is not None:
            return list(self._samples.get(kernel, ()))
        return [
            sample
            for name in sorted(self._samples)
            for sample in self._samples[name]
        ]

    def sample_count(self, kernel: str | None = None) -> int:
        return len(self.samples(kernel))

    def kernels(self) -> list[str]:
        return sorted(self._samples)

    # -- fitting ----------------------------------------------------------

    def refit(self) -> dict[str, float]:
        """Fit per-kernel factors; bump the epoch iff any factor changed.

        The estimator is the weighted median of ``observed / predicted``
        ratios, newest samples weighted ``decay ** age`` — robust to
        outlier queries, responsive to genuine drift.  Kernels below the
        minimum-sample floor get no entry (``factor`` answers 1.0).
        """
        fitted: dict[str, float] = {}
        for kernel in sorted(self._samples):
            history = self._samples[kernel]
            if len(history) < self.min_samples:
                continue
            ratios = [sample.ratio for sample in history]
            weights = [
                self.decay ** (len(history) - 1 - index)
                for index in range(len(history))
            ]
            fitted[kernel] = _weighted_median(ratios, weights)
        if fitted != self._factors:
            self._factors = fitted
            self.epoch += 1
        return dict(self._factors)

    def factor(self, kernel: str) -> float:
        """The fitted multiplicative correction (1.0 until fitted)."""
        return self._factors.get(kernel, 1.0)

    def factors(self) -> dict[str, float]:
        return dict(self._factors)

    def correct(self, kernel: str, predicted_seconds: float) -> float:
        return self.factor(kernel) * predicted_seconds

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready payload; key order is canonical for byte-stable
        persistence (the determinism CI coverage diffs the bytes)."""
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "decay": self.decay,
            "min_samples": self.min_samples,
            "window": self.window,
            "epoch": self.epoch,
            "factors": {name: self._factors[name] for name in sorted(self._factors)},
            "samples": {
                name: [sample.to_dict() for sample in self._samples[name]]
                for name in sorted(self._samples)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationStore":
        if payload.get("format") != STORE_FORMAT:
            raise InvalidParameterError(
                f"not a calibration store: format = {payload.get('format')!r}"
            )
        if payload.get("version") != STORE_VERSION:
            raise InvalidParameterError(
                f"unsupported calibration store version "
                f"{payload.get('version')!r} (expected {STORE_VERSION})"
            )
        store = cls(
            decay=float(payload.get("decay", DEFAULT_DECAY)),
            min_samples=int(payload.get("min_samples", DEFAULT_MIN_SAMPLES)),
            window=int(payload.get("window", DEFAULT_WINDOW)),
        )
        for kernel, rows in payload.get("samples", {}).items():
            store._samples[str(kernel)] = [
                CalibrationSample.from_dict(row) for row in rows
            ]
        store._factors = {
            str(kernel): float(value)
            for kernel, value in payload.get("factors", {}).items()
        }
        store.epoch = int(payload.get("epoch", 0))
        return store

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "CalibrationStore":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


class CalibratedModel(CostModel):
    """A cost model whose predictions pass through the fitted correction.

    Same interface as the wrapped model (``algorithm``, ``supports``,
    ``predict_seconds``), so the planner's ranking loop cannot tell the
    difference; the only change is the multiplicative factor the store
    has fitted for the kernel — 1.0 until enough samples accumulate.
    """

    def __init__(self, model: CostModel, store: CalibrationStore):
        super().__init__(model.device)
        self.model = model
        self.store = store
        self.algorithm = model.algorithm

    def supports(self, n: int, k: int, dtype) -> bool:
        return self.model.supports(n, k, dtype)

    def predict_seconds(
        self,
        n: int,
        k: int,
        dtype=None,
        profile: WorkloadProfile = UNIFORM_FLOAT,
    ) -> float:
        import numpy as np

        dtype = np.dtype(np.float32) if dtype is None else np.dtype(dtype)
        raw = self.model.predict_seconds(n, k, dtype, profile)
        return self.store.correct(self.algorithm, raw)


def base_model_for(kernel: str, device: DeviceSpec) -> CostModel | None:
    """The uncalibrated Section 7 model for a registry kernel name.

    The engine's capture path uses this to price the kernel it is about
    to observe; kernels without a predictive model (the CPU heap,
    merge nodes) answer None and are simply not sampled.
    """
    from repro.costmodel.bitonic_model import BitonicModel
    from repro.costmodel.other_models import BucketSelectModel, PerThreadModel
    from repro.costmodel.radik_model import RadiKModel
    from repro.costmodel.radix_model import RadixSelectModel, SortModel

    classes = {
        "bitonic": BitonicModel,
        "radix-select": RadixSelectModel,
        "radik": RadiKModel,
        "sort": SortModel,
        "per-thread": PerThreadModel,
        "bucket-select": BucketSelectModel,
    }
    model_class = classes.get(kernel)
    return model_class(device) if model_class is not None else None


# -- scoped capture -------------------------------------------------------

#: The store the current execution context records into, mirroring the
#: observability layer's contextvar scoping (thread- and task-safe).
_ACTIVE_STORE: ContextVar[CalibrationStore | None] = ContextVar(
    "repro_calibration_store", default=None
)


def active_store() -> CalibrationStore | None:
    """The store installed by the innermost :func:`capturing` (or None)."""
    return _ACTIVE_STORE.get()


@contextmanager
def capturing(store: CalibrationStore):
    """Install ``store`` as the capture sink for the enclosed block."""
    token = _ACTIVE_STORE.set(store)
    try:
        yield store
    finally:
        _ACTIVE_STORE.reset(token)


def record_sample(
    fingerprint: str,
    kernel: str,
    predicted_ms: float,
    observed_ms: float,
    store: CalibrationStore | None = None,
) -> CalibrationSample | None:
    """Close one prediction loop: store the sample, publish its Q-error.

    Records into ``store`` (or the contextvar-active one), and observes
    ``planner.q_error{kernel=...}`` on the active metrics registry so
    planner accuracy surfaces as p50 / p95 / max summaries even when no
    store is installed.  Non-positive times (an empty selection, a
    zero-cost trace) are skipped — returns None.
    """
    if predicted_ms <= 0.0 or observed_ms <= 0.0:
        return None
    sample = CalibrationSample(
        fingerprint=fingerprint,
        kernel=kernel,
        predicted_ms=float(predicted_ms),
        observed_ms=float(observed_ms),
    )
    target = store if store is not None else active_store()
    if target is not None:
        target.record(sample)
    registry = obs.active_metrics()
    if registry is not None:
        registry.summary("planner.q_error", kernel=kernel).observe(
            sample.q_error
        )
    return sample
