"""repro.slo — SLO-aware serving: open-loop load, deadlines, degradation.

The serving layer (``repro.serving``) answers *how fast* the tier runs;
this package answers *what it promises under overload*.  Queries carry
deadlines and tenant QoS classes; an earliest-deadline-first scheduler
enforces per-class queue budgets and, under pressure, walks an explicit
degradation ladder — lower the recall target through the approximate
operator's recall model, shed best-effort load with typed errors, and
trip a circuit breaker on repeatedly-faulting devices.

* :mod:`repro.slo.arrivals` — seeded open-loop Poisson/bursty workload
  generation over the twitter corpus;
* :mod:`repro.slo.qos` — QoS classes and the :class:`SloPolicy`;
* :mod:`repro.slo.scheduler` — the EDF + ladder decision core (and its
  FIFO control arm) and the one serving cycle both doors call:
  admission, dispatch, settlement;
* :mod:`repro.slo.simulator` — deterministic discrete-event serving
  simulation in simulated time, one request per cycle;
* :mod:`repro.slo.server` — :class:`SloTopKServer`, the cycle mounted on
  the threaded production server, one drained backlog per cycle;
* :mod:`repro.slo.bench` — the load sweep behind ``repro slo-bench``.

See the SLO section of ``docs/serving.md`` for the ladder's contract.
"""

from repro.slo.arrivals import (
    ARRIVAL_PROCESSES,
    OpenLoopWorkload,
    SloQuery,
    bursty_arrivals,
    poisson_arrivals,
)
from repro.slo.bench import (
    DEFAULT_RATES,
    SATURATION_GOODPUT,
    RatePoint,
    SloBenchReport,
    run_slo_benchmark,
)
from repro.slo.qos import (
    BEST_EFFORT,
    DEFAULT_CLASSES,
    DEFAULT_POLICY,
    GOLD,
    STANDARD,
    QoSClass,
    SloPolicy,
)
from repro.slo.scheduler import (
    DEGRADE,
    REJECT,
    RUN,
    SHED_BREAKER,
    SHED_DEADLINE,
    Decision,
    FifoScheduler,
    SloScheduler,
)
from repro.slo.server import SloTopKServer
from repro.slo.simulator import (
    DEFAULT_MAX_PENDING,
    ServedAnswer,
    SimulationResult,
    simulate,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "BEST_EFFORT",
    "DEFAULT_CLASSES",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_POLICY",
    "DEFAULT_RATES",
    "DEGRADE",
    "Decision",
    "FifoScheduler",
    "GOLD",
    "OpenLoopWorkload",
    "QoSClass",
    "REJECT",
    "RUN",
    "RatePoint",
    "SATURATION_GOODPUT",
    "SHED_BREAKER",
    "SHED_DEADLINE",
    "STANDARD",
    "ServedAnswer",
    "SimulationResult",
    "SloBenchReport",
    "SloPolicy",
    "SloQuery",
    "SloScheduler",
    "SloTopKServer",
    "bursty_arrivals",
    "poisson_arrivals",
    "run_slo_benchmark",
    "simulate",
]
