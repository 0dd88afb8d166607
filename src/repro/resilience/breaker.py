"""Circuit breaker: stop retrying a device that keeps faulting.

Retry-with-backoff (``repro.resilience.retry``) is the right answer to a
*transient* fault; against a device that is persistently down it amplifies
overload — every query burns its full retry budget before failing, so a
saturated queue gets slower exactly when it must get faster.  The breaker
is the standard production remedy, adapted to this library's simulated
clock:

* **closed** — normal operation; consecutive failures are counted and
  successes reset the count.
* **open** — tripped after ``failure_threshold`` consecutive failures.
  New work is refused *fast* (the caller sheds it with a typed error or
  routes around the device) for ``cooldown_ms`` of **simulated** time, so
  breaker behavior is as deterministic and testable as everything else in
  the simulator — identical fault schedules trip and recover the breaker
  at identical simulated timestamps.
* **half-open** — after the cooldown, up to ``half_open_probes`` trial
  executions are allowed through; one success closes the breaker, one
  failure re-opens it for another cooldown.

The breaker shares the resilience layer's fault taxonomy: only errors
that :func:`repro.resilience.retry.is_retryable` classifies as transient
device faults count toward tripping — an
:class:`~repro.errors.InvalidParameterError` is the caller's bug, not the
device's, and must never open the breaker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidParameterError
from repro.observability.metrics import MetricsRegistry
from repro.resilience.retry import is_retryable

#: Breaker states (also published as the ``resilience.breaker.state``
#: gauge: closed = 0, open = 1, half-open = 2).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_STATE_GAUGE = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs of one circuit breaker."""

    #: Consecutive counted failures that trip the breaker open.
    failure_threshold: int = 3
    #: Simulated milliseconds the breaker stays open before probing.
    cooldown_ms: float = 1.0
    #: Trial executions allowed while half-open before a verdict.
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise InvalidParameterError(
                f"failure_threshold must be at least 1, "
                f"got {self.failure_threshold}"
            )
        if self.cooldown_ms <= 0:
            raise InvalidParameterError(
                f"cooldown_ms must be positive, got {self.cooldown_ms}"
            )
        if self.half_open_probes < 1:
            raise InvalidParameterError(
                f"half_open_probes must be at least 1, "
                f"got {self.half_open_probes}"
            )


DEFAULT_BREAKER = BreakerPolicy()


class CircuitBreaker:
    """Per-device failure tracker with open/half-open/closed states.

    All transitions are driven by an explicit ``now_ms`` simulated
    timestamp supplied by the caller (the SLO simulator's event clock, or
    a server's accumulated simulated milliseconds) — the breaker never
    reads a wall clock, which is what keeps overload behavior replayable.
    """

    def __init__(
        self,
        policy: BreakerPolicy = DEFAULT_BREAKER,
        name: str = "device",
        metrics: MetricsRegistry | None = None,
    ):
        self.policy = policy
        self.name = name
        self.metrics = metrics
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_ms: float | None = None
        self._half_open_in_flight = 0
        #: Lifetime transition counts, for stats() and tests.
        self.times_opened = 0
        self.times_closed = 0
        self.probes = 0

    # -- admission --------------------------------------------------------

    def allow(self, now_ms: float) -> bool:
        """May a new execution hit the device at simulated time ``now_ms``?

        An open breaker transitions to half-open once the cooldown has
        elapsed; half-open admits at most ``half_open_probes`` in-flight
        probes.  Callers must pair every allowed execution with exactly
        one :meth:`record_success` / :meth:`record_failure`.
        """
        if self.state == OPEN:
            if now_ms - self.opened_at_ms >= self.policy.cooldown_ms:
                self._transition(HALF_OPEN)
                self._half_open_in_flight = 0
            else:
                return False
        if self.state == HALF_OPEN:
            if self._half_open_in_flight >= self.policy.half_open_probes:
                return False
            self._half_open_in_flight += 1
            self.probes += 1
            self._count("resilience.breaker.probes")
            return True
        return True

    # -- outcomes ---------------------------------------------------------

    def record_success(self, now_ms: float) -> None:
        """A device execution completed without a counted fault."""
        if self.state == HALF_OPEN:
            self._half_open_in_flight = max(0, self._half_open_in_flight - 1)
            self._transition(CLOSED)
            self.times_closed += 1
            self._count("resilience.breaker.closed")
        self.consecutive_failures = 0

    def record_failure(self, now_ms: float, error: BaseException | None = None) -> None:
        """A device execution faulted; trips the breaker at the threshold.

        ``error`` is classified through the resilience fault taxonomy:
        non-retryable errors (caller bugs, hard capacity limits) do not
        count.  ``error=None`` means the caller already classified the
        failure as a device fault (e.g. it observed the batcher's
        fallback counters move) and is always counted.  A probe that
        fails uncounted says nothing about the device: its slot is freed
        for the next probe.
        """
        if self.state == HALF_OPEN:
            self._half_open_in_flight = max(0, self._half_open_in_flight - 1)
        if error is not None and not is_retryable(error):
            return
        if self.state == HALF_OPEN:
            self._open(now_ms)
            return
        self.consecutive_failures += 1
        if (
            self.state == CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self._open(now_ms)

    # -- transitions ------------------------------------------------------

    def _open(self, now_ms: float) -> None:
        self._transition(OPEN)
        self.opened_at_ms = now_ms
        self.consecutive_failures = 0
        self.times_opened += 1
        self._count("resilience.breaker.opened")

    def _transition(self, state: str) -> None:
        self.state = state
        if self.metrics is not None:
            self.metrics.gauge(
                "resilience.breaker.state", breaker=self.name
            ).set(_STATE_GAUGE[state])

    def _count(self, metric: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(metric, breaker=self.name).inc()

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "times_opened": self.times_opened,
            "times_closed": self.times_closed,
            "probes": self.probes,
        }
