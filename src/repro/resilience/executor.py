"""Resilient top-k execution: retries, fallback chains, verification.

The production counterpart to :func:`repro.topk`: where the plain entry
point lets a device fault escape as an exception, the
:class:`ResilientExecutor` walks a *fallback chain* of algorithms (by
default the planner's cost ranking, finishing on the CPU heap, which has
no simulated GPU to lose) through :func:`repro.plan.walker.walk` with
bounded retries, exponential backoff in simulated time, and result
verification (``docs/resilience.md`` gives the policy).  With no faults
it adds nothing to the result: same values, same trace, same simulated
time as calling the algorithm directly.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKResult, validate_topk_args
from repro.algorithms.registry import list_algorithms
from repro.core.planner import TopKPlanner
from repro.costmodel.base import UNIFORM_FLOAT, WorkloadProfile
from repro.gpu.device import DeviceSpec, get_device
from repro.plan import Fallback, build_fallback
from repro.plan.walker import AttemptLog, FailurePolicy, walk
from repro.resilience.retry import DEFAULT_RETRY, RETRYABLE_ERRORS, RetryPolicy

#: The fixed fallback order when the caller names an explicit algorithm
#: (the planner's cost ranking is used for "auto"): bitonic first (the
#: paper's winner), then the selection baselines, then the CPU heap —
#: which needs no working GPU at all.
DEFAULT_FALLBACK_CHAIN = ("bitonic", "radix-select", "bucket-select", "sort")


class ResilientExecutor:
    """Run top-k so that transient device faults never surface as wrong
    answers — only as retries, fallbacks, or (when everything is down) a
    typed :class:`~repro.errors.ReproError`."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        retry: RetryPolicy = DEFAULT_RETRY,
        verify: bool = True,
        cpu_fallback: bool = True,
    ):
        self.device = device or get_device()
        self.retry = retry
        self.verify = verify
        self.cpu_fallback = cpu_fallback
        self.planner = TopKPlanner(self.device)
        self._policy = FailurePolicy(
            attempts=retry.max_attempts,
            retry=RETRYABLE_ERRORS,
            backoff=retry,
            verify=verify,
        )

    # -- chain construction ---------------------------------------------

    def fallback_plan(
        self,
        n: int,
        k: int,
        dtype: np.dtype,
        algorithm: str = "auto",
        profile: WorkloadProfile = UNIFORM_FLOAT,
    ) -> Fallback:
        """The explicit :class:`~repro.plan.Fallback` node for this
        configuration: the planner's cost ranking (or the caller's named
        algorithm), extended with the fixed degradation order and — when
        ``cpu_fallback`` — anchored on the CPU heap."""
        approx_config = None
        expected_recall = None
        if algorithm == "auto":
            choice = self.planner.choose(n, k, dtype, profile)
            ranked = list(choice.candidates)
            approx_config = choice.approx_config
            expected_recall = choice.expected_recall
        else:
            ranked = [(algorithm, None)]
        names = [name for name, _ in ranked]
        for name in DEFAULT_FALLBACK_CHAIN:
            if name not in names and name in list_algorithms():
                ranked.append((name, None))
                names.append(name)
        return build_fallback(
            ranked,
            n=n,
            k=k,
            dtype=str(np.dtype(dtype)),
            approx_config=approx_config,
            expected_recall=expected_recall,
            terminal_cpu=self.cpu_fallback,
        )

    def fallback_chain(
        self,
        n: int,
        k: int,
        dtype: np.dtype,
        algorithm: str = "auto",
        profile: WorkloadProfile = UNIFORM_FLOAT,
    ) -> list[str]:
        """Ordered algorithm names to attempt (the plan's chain view)."""
        return self.fallback_plan(n, k, dtype, algorithm, profile).chain()

    # -- execution -------------------------------------------------------

    def run(
        self,
        data: np.ndarray,
        k: int,
        algorithm: str = "auto",
        model_n: int | None = None,
        profile: WorkloadProfile = UNIFORM_FLOAT,
        log: AttemptLog | None = None,
    ) -> TopKResult:
        """Compute the exact top-k of ``data``, surviving injected faults.

        Raises a typed :class:`~repro.errors.ReproError` only when every
        algorithm in the chain has exhausted its retry budget.
        """
        data = np.asarray(data)
        validate_topk_args(data, k)
        log = log if log is not None else AttemptLog()
        plan = self.fallback_plan(
            len(data), k, data.dtype, algorithm, profile
        )
        with obs.span(
            "resilient-topk",
            category="resilience",
            n=len(data),
            k=k,
            requested_algorithm=algorithm,
            chain=",".join(plan.chain()),
        ) as span:
            if span is not obs.NULL_SPAN:
                span.set(plan_fingerprint=plan.fingerprint())
            try:
                result, _ = walk(
                    plan, data, k, self._policy,
                    device=self.device, model_n=model_n, log=log,
                )
            except self._policy.skip + self._policy.retry:
                span.set(exhausted=True, attempts=log.attempts)
                raise
            span.set(
                algorithm=result.algorithm,
                attempts=log.attempts,
                retries=log.retries,
                fallbacks=len(log.fallbacks),
            )
        return result


def resilient_topk(
    data: np.ndarray,
    k: int,
    algorithm: str = "auto",
    device: DeviceSpec | None = None,
    retry: RetryPolicy = DEFAULT_RETRY,
    model_n: int | None = None,
    profile: WorkloadProfile = UNIFORM_FLOAT,
) -> TopKResult:
    """Convenience wrapper around :class:`ResilientExecutor`."""
    executor = ResilientExecutor(device, retry=retry)
    return executor.run(
        data, k, algorithm=algorithm, model_n=model_n, profile=profile
    )
