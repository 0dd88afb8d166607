"""Recall of bucketed approximate top-k: analytic estimate and measurement.

Derivation (documented in ``docs/approximate.md``)
--------------------------------------------------

Fix a bucket j of capacity ``c_j`` (the stripes differ by at most one
element).  Let ``X_j`` be the number of true top-k elements that land in
bucket j.  The per-bucket selection keeps the bucket's ``khat`` largest
elements, and every top-k element in the bucket outranks every non-top-k
element in it, so exactly ``min(X_j, khat)`` of them survive to the exact
merge.  Under exchangeable bucket assignment (a random permutation, or
the strided assignment on data whose order is unrelated to its values)
the top-k elements form a uniform random k-subset of the n positions, so

    X_j ~ Hypergeometric(n, c_j, k)

and the expected recall is

    E[R] = (1 / k) * sum_j E[min(X_j, khat)].

``E[min(X, h)]`` needs only the pmf below ``h``:
``E[min(X, h)] = sum_{x < h} x p(x) + h (1 - sum_{x < h} p(x))``, which
keeps the computation O(buckets_classes * khat) regardless of n and k.
The familiar ``Binomial(k, 1/b)`` model of the approximate top-k paper is
the n -> infinity limit of this hypergeometric.

Assumptions: exchangeability of the bucket assignment (guaranteed by
``ApproxConfig.seed``; holds for the strided default unless the input
order correlates with rank), and — for the delegate pre-filter — at most
one top-k element per delegate group (accurate while ``k * group << n``).

The *measured* recall compares an answer against the exact oracle by
value multiset, using the same order-preserving unsigned key encoding the
radix algorithms use, so duplicates at the k-th boundary count correctly
and NaN/Inf behave exactly as documented in ``tests/test_special_values``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.keys import encode
from repro.approx.config import ApproxConfig
from repro.errors import InvalidParameterError


def _log_comb(a: int, b: int) -> float:
    """log C(a, b) via lgamma; -inf outside the support."""
    if b < 0 or b > a:
        return -math.inf
    return (
        math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    )


def _hyper_pmf_below(n: int, c: int, k: int, h: int) -> np.ndarray:
    """P(X = x) for x in [0, h) with X ~ Hypergeometric(n, c, k).

    Computed by an upward recurrence from the lowest feasible x, which
    avoids summing the (possibly enormous) upper tail.
    """
    pmf = np.zeros(h)
    x_min = max(0, k - (n - c))
    if x_min >= h:
        return pmf
    log_p = (
        _log_comb(c, x_min) + _log_comb(n - c, k - x_min) - _log_comb(n, k)
    )
    p = math.exp(log_p) if log_p > -math.inf else 0.0
    x = x_min
    while x < h:
        pmf[x] = p
        # p(x+1) / p(x) for the hypergeometric pmf.
        numerator = (c - x) * (k - x)
        denominator = (x + 1) * (n - c - k + x + 1)
        p = p * numerator / denominator if denominator > 0 else 0.0
        x += 1
    return pmf


def _expected_min(n: int, c: int, k: int, h: int) -> float:
    """E[min(X, h)] for X ~ Hypergeometric(n, c, k)."""
    if h <= 0:
        return 0.0
    if h >= min(c, k):
        # min(X, h) = X almost surely; E[X] is exact and cheap.
        return k * c / n
    pmf = _hyper_pmf_below(n, c, k, h)
    below = float(pmf.sum())
    return float((np.arange(h) * pmf).sum()) + h * max(0.0, 1.0 - below)


def expected_recall(n: int, k: int, config: ApproxConfig) -> float:
    """Analytic expected recall of the bucketed operator on (n, k).

    Exact under the exchangeability assumption above; returns exactly 1.0
    for every configuration that degenerates to the exact algorithm
    (one bucket, ``khat >= k``, or ``khat`` at least the bucket capacity —
    which covers k = n, where everything must be kept).
    """
    if n < 1 or k < 1 or k > n:
        raise InvalidParameterError(
            f"invalid recall configuration: n = {n}, k = {k}"
        )
    buckets = min(config.buckets, n)
    khat = config.khat(k)
    capacity_high = math.ceil(n / buckets)
    if buckets == 1 or khat >= k or khat >= capacity_high:
        return 1.0
    capacity_low = n // buckets
    high_count = n - capacity_low * buckets
    low_count = buckets - high_count
    total = 0.0
    if low_count:
        total += low_count * _expected_min(n, capacity_low, k, khat)
    if high_count:
        total += high_count * _expected_min(n, capacity_low + 1, k, khat)
    return min(1.0, total / k)


def delegate_expected_recall(
    n: int, k: int, config: ApproxConfig
) -> float:
    """Expected recall with the delegate pre-filter enabled.

    A top-k element survives iff its *group's delegate* survives the
    bucketed selection over the ``ceil(n / g)`` delegates.  The delegates
    of groups containing top-k elements are exactly the delegates ranking
    above every other delegate, so the group-level problem has the same
    structure with n' = number of groups and k' = number of top groups.
    Assuming at most one top-k element per group (k * g << n), k' = k and
    element recall equals group recall.
    """
    group = config.delegate_group
    if group <= 1:
        return expected_recall(n, k, config)
    num_groups = math.ceil(n / group)
    effective_k = min(k, num_groups)
    return expected_recall(num_groups, effective_k, config)


def measured_recall(
    approx_values: np.ndarray, reference_values: np.ndarray
) -> float:
    """Fraction of the exact top-k value multiset the answer recovered.

    Both arrays must share a dtype; comparison happens on the
    canonical unsigned codes (:func:`repro.algorithms.keys.encode`), so
    duplicate boundary values are counted with multiplicity, -0.0 counts
    as +0.0 and every NaN as one code, below -Inf.
    """
    reference_values = np.asarray(reference_values)
    approx_values = np.asarray(approx_values)
    if len(reference_values) == 0:
        return 1.0
    if approx_values.dtype != reference_values.dtype:
        raise InvalidParameterError(
            "measured_recall compares same-dtype value arrays, got "
            f"{approx_values.dtype} vs {reference_values.dtype}"
        )
    approx_codes, approx_counts = np.unique(
        encode(approx_values), return_counts=True
    )
    exact_codes, exact_counts = np.unique(
        encode(reference_values), return_counts=True
    )
    _, approx_at, exact_at = np.intersect1d(
        approx_codes, exact_codes, return_indices=True
    )
    hits = np.minimum(approx_counts[approx_at], exact_counts[exact_at]).sum()
    return float(hits) / float(len(reference_values))
