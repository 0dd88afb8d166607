"""Configuration of the bucketed approximate top-k operator.

The operator (Key et al., "Approximate Top-k for Increased Parallelism",
2024 — see PAPERS.md) splits the n inputs into ``buckets`` disjoint
stripes, selects the top-``khat`` of every stripe independently with the
exact machinery, and merges the ``buckets * khat`` candidates exactly.
With ``khat = ceil(k / buckets) * oversample`` the merge output misses a
true top-k element only when more than ``khat`` of them collide in one
bucket — the event :func:`repro.approx.recall.expected_recall` quantifies.

``delegate_group`` additionally enables the Dr. Top-k-style pre-filter
(Gaihre et al., 2021): the scan first reduces each group of ``g``
consecutive elements to its maximum (the *delegate*) and buckets the
delegates instead, so the exact merge only reads the elements of surviving
groups — an n-to-``buckets * khat * g`` cut of the merge's global traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bitonic.network import next_pow2
from repro.errors import InvalidParameterError

#: Default oversampling factor m: keep m * ceil(k/b) per bucket.  Three
#: slots per expected top-k hit pushes the collision probability (and so
#: the recall loss) below 1e-6 for the default bucket counts.
DEFAULT_OVERSAMPLE = 3

#: Default delegate group size when the pre-filter is requested without an
#: explicit size (128 consecutive elements per delegate, the Dr. Top-k
#: sweet spot for coalesced re-reads).
DEFAULT_DELEGATE_GROUP = 128


@dataclass(frozen=True)
class ApproxConfig:
    """Tuning knobs of one approximate top-k execution.

    * ``buckets`` — number of disjoint stripes b the input is split into.
    * ``oversample`` — per-bucket oversampling factor m; each bucket keeps
      ``khat = ceil(k / b) * m`` candidates.
    * ``delegate_group`` — elements per delegate for the Dr. Top-k
      pre-filter; 0 disables the filter (the default).
    * ``seed`` — when set, elements are assigned to buckets by a seeded
      random permutation, which makes the recall model's exchangeability
      assumption hold *by construction* on any input order; when None the
      deterministic strided assignment (element i -> bucket i mod b) is
      used, which is free and equivalent for non-adversarial input orders.
    """

    buckets: int = 32
    oversample: int = DEFAULT_OVERSAMPLE
    delegate_group: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.buckets < 1:
            raise InvalidParameterError(
                f"buckets must be at least 1, got {self.buckets}"
            )
        if self.oversample < 1:
            raise InvalidParameterError(
                f"oversample must be at least 1, got {self.oversample}"
            )
        if self.delegate_group < 0:
            raise InvalidParameterError(
                f"delegate_group cannot be negative, got {self.delegate_group}"
            )

    def khat(self, k: int) -> int:
        """Candidates kept per bucket for a query of size k."""
        if k < 1:
            raise InvalidParameterError(f"k must be at least 1, got {k}")
        return math.ceil(k / self.buckets) * self.oversample

    def candidates(self, k: int) -> int:
        """Total merge input: ``buckets * khat``."""
        return self.buckets * self.khat(k)

    def key(self) -> tuple:
        """Hashable identity for plan-cache keys and batch grouping."""
        return (self.buckets, self.oversample, self.delegate_group, self.seed)


def default_config(n: int, k: int) -> ApproxConfig:
    """The planner's default configuration for an (n, k) shape.

    ``b = next_pow2(k / 8)`` keeps ``khat`` near ``8 * oversample = 24``
    slots per bucket — small enough to live in registers (no spill below
    the 64-register budget of Appendix A), large enough that the binomial
    collision tail is negligible (expected recall > 1 - 1e-6 at k = 256).
    """
    if n < 1 or k < 1 or k > n:
        raise InvalidParameterError(
            f"invalid approximate top-k configuration: n = {n}, k = {k}"
        )
    buckets = next_pow2(max(1, k // 8))
    return ApproxConfig(buckets=max(1, min(buckets, n)))
