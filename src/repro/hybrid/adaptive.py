"""Adaptive algorithm selection from a data sample.

The static planner (:class:`repro.core.planner.TopKPlanner`) needs a
workload profile; real systems do not know the distribution up front.
Section 6.4 shows the stakes: radix select is excellent on uniform keys
but collapses on its adversarial distribution, while the per-thread heap
collapses on sorted input.  An *adaptive* selector closes the gap by
sniffing a small sample:

* **sortedness** — the fraction of ascending adjacent pairs; near 1.0
  predicts the per-thread worst case (every element inserts);
* **radix survivor fractions** — running the real radix bucket selection
  on the sample estimates the eta_i sequence, which both detects
  bucket-killer-like concentration and measures the real reduction rate
  of e.g. U(0, 1) floats (eta_0 ~ 0.5) vs uniform uints (eta_0 ~ 1/256).

The measured statistics parameterize the Section 7 cost models, and the
cheapest feasible algorithm wins — so a bucket killer is routed to bitonic
and uniform uints at large k to radix select, with no user-provided hints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKResult, validate_topk_args
from repro.algorithms.radix_sort import DIGIT_BITS
from repro.core.planner import PlanChoice, TopKPlanner
from repro.costmodel.base import WorkloadProfile
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device
from repro.plan.walker import FailurePolicy, walk


@dataclass(frozen=True)
class SampleStatistics:
    """Distribution statistics measured from a sample."""

    sortedness: float
    radix_survivor_fractions: tuple[float, ...]

    @property
    def looks_sorted(self) -> bool:
        return self.sortedness > 0.95

    @property
    def looks_adversarial_for_radix(self) -> bool:
        """True when early passes achieve almost no reduction."""
        return self.radix_survivor_fractions[0] > 0.9


def measure_sample(sample: np.ndarray, k_hint: int = 64) -> SampleStatistics:
    """Compute the selector's statistics from a sample."""
    if len(sample) < 2:
        raise InvalidParameterError("the sample needs at least two elements")
    ascending = np.count_nonzero(np.diff(sample.astype(np.float64)) >= 0)
    sortedness = ascending / (len(sample) - 1)

    codes = keycodec.encode(np.ascontiguousarray(sample))
    bits = keycodec.key_bits(sample.dtype)
    fractions: list[float] = []
    candidates = codes
    remaining = min(k_hint, len(sample))
    for shift in range(bits - DIGIT_BITS, -DIGIT_BITS, -DIGIT_BITS):
        if len(candidates) <= max(remaining, 1):
            break
        digits = keycodec.digit(candidates, shift, DIGIT_BITS)
        histogram = np.bincount(digits, minlength=1 << DIGIT_BITS)
        at_least = np.cumsum(histogram[::-1])[::-1]
        bucket = int(np.max(np.flatnonzero(at_least >= remaining)))
        survivors = int(histogram[bucket])
        fractions.append(survivors / len(candidates))
        emitted = int((digits > bucket).sum())
        remaining = max(1, remaining - emitted)
        candidates = candidates[digits == bucket]
    if not fractions:
        fractions = [1.0 / 256]
    while len(fractions) < 4:
        fractions.append(fractions[-1])
    return SampleStatistics(
        sortedness=sortedness,
        radix_survivor_fractions=tuple(fractions[:4]),
    )


class AdaptiveTopK:
    """Sample, profile, choose, run."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        sample_size: int = 4096,
        seed: int = 0,
    ):
        self.device = device or get_device()
        self.sample_size = sample_size
        self.seed = seed
        self.planner = TopKPlanner(self.device)

    def sample(self, data: np.ndarray) -> np.ndarray:
        """A cheap sample: a random slice start keeps order structure
        visible (pure random picks would destroy sortedness evidence)."""
        if len(data) <= self.sample_size:
            return data
        rng = np.random.default_rng(self.seed)
        start = int(rng.integers(0, len(data) - self.sample_size))
        return data[start : start + self.sample_size]

    def profile(self, data: np.ndarray, k: int) -> WorkloadProfile:
        """Measured workload profile for the cost models."""
        with obs.span(
            "adaptive-sample", category="scheduler", sample_size=self.sample_size
        ) as span:
            statistics = measure_sample(self.sample(data), k)
            span.set(
                sortedness=statistics.sortedness,
                eta_0=statistics.radix_survivor_fractions[0],
            )
            registry = obs.active_metrics()
            if registry is not None:
                registry.gauge("adaptive.sortedness").set(statistics.sortedness)
                registry.gauge("adaptive.eta_0").set(
                    statistics.radix_survivor_fractions[0]
                )
        return WorkloadProfile(
            name="sampled",
            radix_survivor_fractions=statistics.radix_survivor_fractions,
            every_element_inserts=statistics.looks_sorted,
        )

    def choose(self, data: np.ndarray, k: int, model_n: int | None = None) -> PlanChoice:
        """The planner's decision under the measured profile."""
        profile = self.profile(data, k)
        return self.planner.choose(model_n or len(data), k, data.dtype, profile)

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        with obs.span(
            "adaptive", category="scheduler", n=len(data), k=k
        ) as span:
            choice = self.choose(data, k, model_n)
            # A runtime resource limit skips to the next-cheapest candidate.
            result, _ = walk(
                choice.root, data, k, FailurePolicy(),
                device=self.device, model_n=model_n,
            )
            span.set(algorithm=result.algorithm)
            registry = obs.active_metrics()
            if registry is not None:
                registry.counter(
                    "adaptive.decisions", algorithm=result.algorithm
                ).inc()
        result.trace.notes["adaptive_choice"] = 1.0
        return result
