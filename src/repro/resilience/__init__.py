"""Resilient execution: survive simulated device failures.

The subsystem has four parts:

* :mod:`repro.gpu.faults` — the deterministic fault injector the layers
  below consult (kernel launches, memory reads, PCIe transfers);
* :mod:`repro.resilience.retry` — bounded retry policies with exponential
  backoff in *simulated* time;
* :mod:`repro.resilience.verify` — result verification hooks that catch
  silent corruption before an answer escapes;
* :mod:`repro.resilience.executor` — the :class:`ResilientExecutor` that
  combines them with planner-driven fallback chains;
* :mod:`repro.resilience.breaker` — the :class:`CircuitBreaker` the SLO
  serving layer trips on repeatedly-faulting devices;
* :mod:`repro.resilience.chaos` — the seeded chaos campaign behind
  ``repro chaos``.
"""

from repro.plan import CPU_FALLBACK
from repro.resilience.breaker import (
    DEFAULT_BREAKER,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.resilience.chaos import ChaosReport, ChaosTrial, run_campaign
from repro.resilience.executor import (
    DEFAULT_FALLBACK_CHAIN,
    AttemptLog,
    ResilientExecutor,
    resilient_topk,
)
from repro.resilience.retry import (
    DEFAULT_RETRY,
    NO_RETRY,
    RETRYABLE_ERRORS,
    RetryPolicy,
    is_retryable,
)
from repro.resilience.verify import verification_issues, verify_result

__all__ = [
    "AttemptLog",
    "BreakerPolicy",
    "ChaosReport",
    "ChaosTrial",
    "CircuitBreaker",
    "CPU_FALLBACK",
    "DEFAULT_BREAKER",
    "DEFAULT_FALLBACK_CHAIN",
    "DEFAULT_RETRY",
    "NO_RETRY",
    "RETRYABLE_ERRORS",
    "ResilientExecutor",
    "RetryPolicy",
    "is_retryable",
    "resilient_topk",
    "run_campaign",
    "verification_issues",
    "verify_result",
]
