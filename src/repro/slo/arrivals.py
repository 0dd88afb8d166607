"""Seeded open-loop workload generation for the SLO serving layer.

Closed-loop load (submit, wait, submit) can never overload a server —
the client self-throttles, which is exactly the regime an SLO study must
escape.  The generators here are **open-loop**: arrival timestamps are
drawn from a stochastic process at a configured offered rate and queries
arrive at those simulated instants whether or not the server has caught
up, so queueing delay, deadline misses, and shedding emerge naturally.

Two arrival processes:

* :func:`poisson_arrivals` — memoryless: i.i.d. exponential
  inter-arrival gaps at ``rate_per_ms``;
* :func:`bursty_arrivals` — a two-state Markov-modulated Poisson
  process: a calm state and a burst state whose rate is
  ``burst_factor``× higher, with state runs of geometric length.  The
  state rates are normalized so the *long-run* offered rate still equals
  ``rate_per_ms`` — bursty and Poisson traces at the same nominal rate
  are comparable, but the bursty one concentrates its pain.

The queries themselves replay the paper's serving scenario over the
synthetic twitter corpus: each query ranks a contiguous window of the
``retweet_count`` column (``ORDER BY retweet_count DESC LIMIT k``), with
window *offsets* skewed toward the head of the table (recent/hot tweets,
mirroring the corpus's Zipf-shaped popularity) and a **distinct window
length per query** — real tenants rarely share exact row counts, which
keeps the stream honest about cross-query batching: none of it fuses, so
capacity gains must come from scheduling, not batching luck.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.twitter import generate_tweets
from repro.errors import InvalidParameterError

#: Skew exponent for window offsets: offset = head * u**OFFSET_SKEW with
#: u uniform, concentrating windows near the head of the table.
OFFSET_SKEW = 3.0

#: QoS class mix of the generated stream (name -> probability).
DEFAULT_CLASS_MIX = (
    ("gold", 0.2),
    ("standard", 0.5),
    ("best-effort", 0.3),
)


def poisson_arrivals(rate_per_ms: float, count: int, seed: int = 0) -> np.ndarray:
    """Arrival timestamps (simulated ms) of a Poisson process."""
    if rate_per_ms <= 0:
        raise InvalidParameterError(f"rate_per_ms must be positive, got {rate_per_ms}")
    if count < 1:
        raise InvalidParameterError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_ms, size=count)
    return np.cumsum(gaps)


def bursty_arrivals(
    rate_per_ms: float,
    count: int,
    seed: int = 0,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.2,
    mean_burst_run: int = 8,
) -> np.ndarray:
    """Arrival timestamps of a two-state Markov-modulated process.

    A ``burst_fraction`` share of queries (in the long run) arrive in the
    burst state at ``burst_factor * rate``; the calm-state rate is solved
    so the overall mean offered rate equals ``rate_per_ms``.  State runs
    have geometric length with the burst run averaging
    ``mean_burst_run`` queries.
    """
    if rate_per_ms <= 0:
        raise InvalidParameterError(f"rate_per_ms must be positive, got {rate_per_ms}")
    if count < 1:
        raise InvalidParameterError(f"count must be at least 1, got {count}")
    if burst_factor <= 1.0:
        raise InvalidParameterError(f"burst_factor must exceed 1, got {burst_factor}")
    if not 0.0 < burst_fraction < 1.0:
        raise InvalidParameterError(
            f"burst_fraction must be in (0, 1), got {burst_fraction}"
        )
    if burst_fraction * burst_factor >= burst_factor:
        # Unreachable with the guards above; kept for clarity of the math.
        raise InvalidParameterError("burst parameters are infeasible")
    # Solve the calm rate from the harmonic mean of per-query gap costs:
    #   f/(B·r) + (1-f)/r_calm = 1/r   =>   r_calm = (1-f)·B·r / (B-f)
    calm_rate = (
        (1.0 - burst_fraction)
        * burst_factor
        * rate_per_ms
        / (burst_factor - burst_fraction)
    )
    burst_rate = burst_factor * rate_per_ms
    # Two-state chain over queries with stationary burst share f and mean
    # burst run length R: exit prob 1/R, entry prob f/((1-f)·R).
    exit_prob = 1.0 / mean_burst_run
    entry_prob = burst_fraction / ((1.0 - burst_fraction) * mean_burst_run)
    rng = np.random.default_rng(seed)
    gaps = np.empty(count)
    in_burst = rng.random() < burst_fraction
    for index in range(count):
        rate = burst_rate if in_burst else calm_rate
        gaps[index] = rng.exponential(1.0 / rate)
        flip = rng.random()
        in_burst = flip >= exit_prob if in_burst else flip < entry_prob
    return np.cumsum(gaps)


ARRIVAL_PROCESSES = ("poisson", "bursty")


@dataclass(frozen=True)
class SloQuery:
    """One query of an open-loop trace."""

    index: int
    #: Simulated-ms timestamp at which the query arrives at the server.
    arrival_ms: float
    #: Window of the base column this query ranks.
    offset: int
    n: int
    k: int
    #: QoS class name (resolved against the policy at serving time).
    qos: str


@dataclass
class OpenLoopWorkload:
    """A seeded open-loop query stream over the twitter corpus.

    ``generate()`` materializes the same *queries* (windows, ks, QoS
    tags) for every offered rate — only the arrival timestamps change
    with ``rate_per_ms`` — so a load sweep compares identical work under
    different pressure, and two schedulers at the same rate see the
    byte-identical trace.
    """

    queries: int = 120
    rate_per_ms: float = 10.0
    process: str = "poisson"
    seed: int = 0
    #: Rows of the generated tweets table queries take windows of.
    rows: int = 1 << 17
    #: Window-length range; every query gets a *distinct* length.
    n_min: int = 40_960
    n_max: int = 65_536
    k: int = 64
    column: str = "retweet_count"
    class_mix: tuple = DEFAULT_CLASS_MIX
    burst_factor: float = 4.0
    burst_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise InvalidParameterError(
                f"workload needs at least 1 query, got {self.queries}"
            )
        if self.process not in ARRIVAL_PROCESSES:
            raise InvalidParameterError(
                f"unknown arrival process {self.process!r}; known: {ARRIVAL_PROCESSES}"
            )
        if not 0 < self.n_min <= self.n_max <= self.rows:
            raise InvalidParameterError(
                f"need 0 < n_min <= n_max <= rows, got "
                f"{self.n_min}/{self.n_max}/{self.rows}"
            )
        if self.n_max - self.n_min < self.queries:
            raise InvalidParameterError(
                f"window range [{self.n_min}, {self.n_max}) is too narrow "
                f"for {self.queries} distinct window lengths"
            )
        if self.k < 1 or self.k > self.n_min:
            raise InvalidParameterError(
                f"invalid k = {self.k} for n_min = {self.n_min}"
            )

    def arrivals(self) -> np.ndarray:
        if self.process == "bursty":
            return bursty_arrivals(
                self.rate_per_ms,
                self.queries,
                seed=self.seed,
                burst_factor=self.burst_factor,
                burst_fraction=self.burst_fraction,
            )
        return poisson_arrivals(self.rate_per_ms, self.queries, seed=self.seed)

    def generate(self) -> tuple[np.ndarray, list[SloQuery]]:
        """Materialize ``(base_column, trace)``.

        The base column is generated once; query payloads are views
        ``column[offset : offset + n]`` — the serving layers copy what
        they must, mirroring how a real tier serves windows of a shared
        registered table rather than per-query payload uploads.
        """
        column = generate_tweets(self.rows, seed=self.seed).column(self.column)
        # Shapes/QoS use a rate-independent seed stream so every rate of a
        # sweep ranks the same windows.
        rng = np.random.default_rng((self.seed, 0x51_0))
        lengths = rng.choice(
            np.arange(self.n_min, self.n_max), size=self.queries, replace=False
        )
        names = [name for name, _ in self.class_mix]
        weights = np.asarray([weight for _, weight in self.class_mix])
        classes = rng.choice(len(names), size=self.queries, p=weights / weights.sum())
        offsets = np.floor(
            (self.rows - lengths) * rng.random(self.queries) ** OFFSET_SKEW
        ).astype(np.int64)
        arrival_times = self.arrivals()
        trace = [
            SloQuery(
                index=index,
                arrival_ms=float(arrival_times[index]),
                offset=int(offsets[index]),
                n=int(lengths[index]),
                k=self.k,
                qos=names[classes[index]],
            )
            for index in range(self.queries)
        ]
        return column, trace

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "rate_per_ms": self.rate_per_ms,
            "process": self.process,
            "seed": self.seed,
            "rows": self.rows,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "k": self.k,
            "column": self.column,
        }
