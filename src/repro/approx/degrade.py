"""Recall→configuration inverse lookup for SLO-driven degradation.

The SLO scheduler degrades a query by lowering its ``recall_target`` —
rung 1 of the serving layer's degradation ladder — and needs to know, at
scheduling time, (a) whether a genuinely approximate configuration exists
for the query's shape at the degraded target, and (b) what recall floor
that configuration *advertises* (the exact hypergeometric
:func:`~repro.approx.recall.expected_recall` of the chosen config, which
the bench later verifies against :func:`~repro.approx.recall.measured_recall`).

:func:`degraded_config` answers both by delegating to the cost model's
recall-constrained search (:func:`repro.costmodel.approx_model.choose_config`)
which is memoized on everything it reads: scheduling decisions happen
once per dispatch cycle, so the same (shape, target) pair must not re-pay
the config sweep every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.config import ApproxConfig
from repro.costmodel.base import UNIFORM_FLOAT, WorkloadProfile
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec, get_device


@dataclass(frozen=True)
class DegradeChoice:
    """One feasible degradation: the config and what it promises."""

    config: ApproxConfig
    #: Analytic expected recall of ``config`` on the query's shape — the
    #: floor the degraded answer advertises to its caller.
    expected_recall: float
    #: The cost model's predicted seconds for the approximate execution.
    predicted_seconds: float


def degraded_config(
    n: int,
    k: int,
    recall_target: float,
    dtype: np.dtype = np.dtype(np.float32),
    device: DeviceSpec | None = None,
    profile: WorkloadProfile = UNIFORM_FLOAT,
) -> DegradeChoice | None:
    """Cheapest genuinely-approximate configuration meeting the target.

    Returns None when no non-degenerate configuration meets
    ``recall_target`` on this shape — the scheduler then leaves the query
    exact (degrading its ``recall_target`` would change nothing, since
    the planner only picks the approximate operator when a feasible
    config exists *and* beats every exact algorithm).

    The search is memoized on ``(n, k, target, dtype, device, profile)``;
    safe to call from every dispatch cycle.
    """
    if n < 1 or k < 1 or k > n:
        raise InvalidParameterError(
            f"invalid degradation shape: n = {n}, k = {k}"
        )
    if not 0.0 < recall_target <= 1.0:
        raise InvalidParameterError(
            f"recall_target must be in (0, 1], got {recall_target}"
        )
    from repro.costmodel.approx_model import choose_config

    found = choose_config(
        n, k, recall_target, np.dtype(dtype), device or get_device(), profile
    )
    if found is None:
        return None
    return DegradeChoice(
        config=found[0], expected_recall=found[2], predicted_seconds=found[1]
    )


def clear_cache() -> None:
    """Drop every memoized lookup (tests and device-profile changes)."""
    from repro.costmodel.approx_model import choose_config

    choose_config.cache_clear()
