"""The one walker of :class:`~repro.plan.Fallback` nodes.

Every front door that executes a fallback — :func:`repro.topk`,
:class:`repro.AdaptiveTopK`, the engine's selection operator and the
:class:`~repro.resilience.ResilientExecutor` — runs it through
:func:`walk` and differs only in its :class:`FailurePolicy`
(``docs/resilience.md`` tabulates them).  The terminal ``cpu-heap``
stage runs with fault injection suspended and answers with the CPU heap,
which returns the canonical order (value descending, lower row first, NaN
last) like every exact kernel.  Every attempt counts
once in ``plan.attempts{node,outcome}``, outcome being ``ok``, ``retry``
(tried again on the same node), ``skip`` (on to the next node) or
``raise`` (the error reaches the caller).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKResult
from repro.errors import ResourceExhaustedError
from repro.gpu import faults
from repro.gpu.counters import KernelCounters
from repro.gpu.device import DeviceSpec
from repro.gpu.timing import BACKOFF_KERNEL
from repro.plan.nodes import CPU_FALLBACK, Fallback, PlanNode

if TYPE_CHECKING:
    from repro.resilience.retry import RetryPolicy


@dataclass(frozen=True)
class FailurePolicy:
    """What one front door does when a fallback alternative fails.

    Errors in ``skip`` move to the next alternative at once; errors in
    ``retry`` are retried until the alternative has had ``attempts``
    tries, then skipped; any other error surfaces, and so does the
    error of the last alternative.
    """

    #: A capacity limit does not heal on retry, at any door.
    skip: ClassVar[tuple[type[BaseException], ...]] = (ResourceExhaustedError,)

    attempts: int = 1
    retry: tuple[type[BaseException], ...] = ()
    #: Simulated backoff charged per retry (a ``resilience-backoff``
    #: kernel on the winning trace); None makes retries free.
    backoff: "RetryPolicy | None" = None
    #: Pass results through the ``result-transfer`` / ``result-buffer``
    #: fault sites and :func:`~repro.resilience.verify.verify_result`.
    verify: bool = False
    #: False runs the walk unobserved, for callers that re-account it.
    observe: bool = True


@dataclass
class AttemptLog:
    """What happened across one walk, for reports and tests."""

    attempts: int = 0
    retries: int = 0
    fallbacks: list[tuple[str, str]] = field(default_factory=list)
    verification_failures: int = 0
    backoff_seconds: float = 0.0
    errors: list[str] = field(default_factory=list)


def walk(
    fallback: Fallback,
    data: np.ndarray,
    k: int,
    policy: FailurePolicy,
    *,
    device: DeviceSpec | None = None,
    flags=None,
    model_n: "int | None | Callable[[PlanNode], int | None]" = None,
    log: AttemptLog | None = None,
) -> tuple[TopKResult, PlanNode]:
    """Run ``fallback``'s alternatives in order until one answers.

    Returns the result and the alternative that produced it.
    ``model_n`` is the traced size, or a function giving it per node.
    """
    log = log if log is not None else AttemptLog()
    registry = obs.active_metrics()
    names = fallback.chain()
    last_error: BaseException | None = None
    with nullcontext() if policy.observe else obs.suspended():
        for position, node in enumerate(fallback.alternatives):
            name = names[position]
            if position > 0:
                log.fallbacks.append((names[position - 1], name))
                with obs.span("fallback", category="resilience",
                              source=names[position - 1], target=name):
                    pass
            node_model = model_n(node) if callable(model_n) else model_n
            for attempt in range(1, policy.attempts + 1):
                log.attempts += 1
                try:
                    result = _attempt(node, name, data, k, policy, device,
                                      flags, node_model)
                except policy.skip + policy.retry as error:
                    last_error = error
                    log.errors.append(f"{name}: {error}")
                    if getattr(error, "site", "") == "result-verify":
                        log.verification_failures += 1
                    if isinstance(error, policy.skip) or attempt == policy.attempts:
                        last = position == len(names) - 1
                        _count(registry, name, "raise" if last else "skip")
                        break
                    _count(registry, name, "retry")
                    _retry(policy, log, name, attempt, error)
                except BaseException:
                    _count(registry, name, "raise")
                    raise
                else:
                    _count(registry, name, "ok")
                    _charge_backoff(result, log)
                    return result, node
    assert last_error is not None
    raise last_error


def _attempt(node, name, data, k, policy, device, flags, model_n) -> TopKResult:
    from repro.algorithms.registry import create_for_node

    runner = create_for_node(node, device, flags=flags)
    if name == CPU_FALLBACK:
        # No simulated device to lose and no PCIe copy to corrupt.
        with faults.suspended():
            result = runner.run(data, k, model_n=model_n)
    else:
        result = runner.run(data, k, model_n=model_n)
        if policy.verify:
            # The simulated D2H copy: a transfer fault site, then a
            # silent-corruption site that verification must catch.
            faults.fault_point("result-transfer", name)
            faults.filter_result("result-buffer", result.values, name)
    if policy.verify:
        from repro.resilience.verify import verify_result

        verify_result(data, result)
    return result


def _retry(policy, log, name, attempt, error) -> None:
    log.retries += 1
    if policy.backoff is None:
        return
    backoff = policy.backoff.backoff_seconds(attempt)
    log.backoff_seconds += backoff
    with obs.span("retry", category="resilience", algorithm=name,
                  attempt=attempt, fault=type(error).__name__,
                  backoff_ms=backoff * 1e3) as retry_span:
        retry_span.add_simulated_ms(backoff * 1e3)


def _charge_backoff(result: TopKResult, log: AttemptLog) -> None:
    if log.backoff_seconds <= 0.0:
        return
    # Built directly, not via trace.launch, so it cannot trip a fault site.
    result.trace.kernels.append(
        KernelCounters(name=BACKOFF_KERNEL, fixed_seconds=log.backoff_seconds)
    )
    result.trace.notes["retries"] = float(log.retries)
    result.trace.notes["backoff_seconds"] = log.backoff_seconds


def _count(registry, name: str, outcome: str) -> None:
    if registry is not None:
        registry.counter("plan.attempts", node=name, outcome=outcome).inc()
