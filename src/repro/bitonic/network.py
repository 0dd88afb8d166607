"""Bitonic network descriptions for the three top-k operators.

A bitonic computation is a sequence of *steps*; each step performs, fully in
parallel, one compare-exchange per element pair at a fixed distance:

* ``inc`` — the comparison distance (a power of two),
* ``direction_period`` — the power-of-two block size whose parity decides
  the comparison direction, exactly as in the paper's Algorithm 2/4:
  ``reverse = ((direction_period & i) == 0)`` for element index ``i``.

The three operators of Section 3.2 are step sequences:

* :func:`local_sort_steps` — turn an unsorted array into sorted runs of
  length k, alternating ascending/descending (Algorithm 2);
* the *merge* is a single step at distance k which keeps the pairwise
  maxima (Algorithm 3) — represented separately because it halves the data;
* :func:`rebuild_steps` — re-sort length-k bitonic sequences into
  alternating sorted runs in log2(k) steps (Algorithm 4).

These descriptions are shared by the functional executor
(:mod:`repro.bitonic.operators`), the kernel cost accounting
(:mod:`repro.bitonic.kernels`) and the combined-step planner
(:mod:`repro.bitonic.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidParameterError


def next_pow2(value: int) -> int:
    """The smallest power of two >= ``value``, for positive ``value``."""
    return 1 << max(0, (value - 1).bit_length())


def is_power_of_two(value: int) -> bool:
    """True for 1, 2, 4, 8, ..."""
    return value > 0 and value & (value - 1) == 0


def validate_power_of_two(value: int, what: str) -> None:
    if not is_power_of_two(value):
        raise InvalidParameterError(f"{what} must be a power of two, got {value}")


@dataclass(frozen=True)
class Step:
    """One massively parallel compare-exchange step."""

    inc: int
    direction_period: int

    def __post_init__(self) -> None:
        validate_power_of_two(self.inc, "step distance")
        validate_power_of_two(self.direction_period, "direction period")
        if self.direction_period < 2 * self.inc:
            raise InvalidParameterError(
                "direction period must be at least twice the distance"
            )

    @property
    def distance_bit(self) -> int:
        """The index bit toggled by this step's comparisons."""
        return self.inc.bit_length() - 1


def local_sort_steps(k: int) -> list[Step]:
    """Steps of the local sort operator (Algorithm 2).

    Builds alternating ascending/descending runs of length k from an
    unsorted array: for each run length ``len = 1, 2, ..., k/2`` the phase
    performs steps at distances ``len, len/2, ..., 1`` with direction
    alternating every ``2 * len`` elements.
    """
    validate_power_of_two(k, "k")
    steps = []
    length = 1
    while length < k:
        inc = length
        while inc > 0:
            steps.append(Step(inc=inc, direction_period=2 * length))
            inc >>= 1
        length <<= 1
    return steps


def rebuild_steps(k: int) -> list[Step]:
    """Steps of the rebuild operator (Algorithm 4).

    The input consists of length-k *bitonic* sequences (the merge output),
    which sort in log2(k) steps starting at distance k/2 — the saving over
    a from-scratch local sort that Section 3.2 calls out.
    """
    validate_power_of_two(k, "k")
    if k == 1:
        return []
    steps = []
    inc = k >> 1
    while inc > 0:
        steps.append(Step(inc=inc, direction_period=k))
        inc >>= 1
    return steps


def full_sort_steps(n: int) -> list[Step]:
    """Steps of a complete bitonic sort of ``n`` elements (Section 2.2).

    Used by tests as a reference network and by the naive-baseline cost
    accounting: log2(n) phases, phase p having p steps, O(n log^2 n)
    comparisons in total.
    """
    validate_power_of_two(n, "n")
    steps = []
    length = 1
    while length < n:
        inc = length
        while inc > 0:
            # The final phase (length == n/2) must sort the whole array in
            # one direction; its direction period exceeds the array so the
            # comparison direction is uniform.
            steps.append(Step(inc=inc, direction_period=2 * length))
            inc >>= 1
        length <<= 1
    return steps


def comparisons_per_step(n: int) -> int:
    """Compare-exchange operations in one step over ``n`` elements."""
    return n // 2


def local_sort_comparisons(n: int, k: int) -> int:
    """Total comparisons of a local sort over ``n`` elements."""
    return comparisons_per_step(n) * len(local_sort_steps(k))


def topk_total_comparisons(n: int, k: int) -> int:
    """Total comparisons of the full bitonic top-k reduction.

    Local sort on n elements, then per halving round one merge step and a
    rebuild on the surviving half — the O(n log^2 k) bound of Appendix C.
    """
    validate_power_of_two(n, "n")
    validate_power_of_two(k, "k")
    if k > n:
        raise InvalidParameterError("k cannot exceed n")
    total = local_sort_comparisons(n, k)
    live = n
    while live > k:
        total += live // 2  # merge: one comparison per surviving element
        live //= 2
        total += comparisons_per_step(live) * len(rebuild_steps(k))
    return total
