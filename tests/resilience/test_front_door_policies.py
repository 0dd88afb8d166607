"""One table of failure policies across every front door.

Each front door walks its plan's Fallback node under its own failure
policy (see docs/resilience.md, "Failure policy per front door").  The
table below pins, for three injected faults, whether a door answers with
the oracle's rows or surfaces a typed error.  The plain ``topk`` /
``bottomk`` and ``AdaptiveTopK`` doors survive only a capacity limit;
device faults surface there by design — the engine, the resilient
executor and the server are the doors that absorb them.
"""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.core.topk import bottomk, topk
from repro.engine.session import Session
from repro.engine.table import Table
from repro.errors import DeviceLostError, ResourceExhaustedError
from repro.gpu.faults import FaultInjector, FaultPlan, inject
from repro.hybrid.adaptive import AdaptiveTopK
from repro.resilience import ResilientExecutor
from repro.serving import TopKServer

N = 4096
K = 32

FAULTS = {
    "device-lost": FaultPlan(site="kernel-launch", fault="device-lost", nth=1),
    "resource-exhausted": FaultPlan(
        site="kernel-launch", fault="resource-exhausted", nth=1
    ),
    "silent-flip": FaultPlan(
        site="result-buffer", fault="memory-corruption", nth=1, silent=True
    ),
}


def _sql(data):
    session = Session()
    session.register(
        Table("t", {"id": np.arange(len(data), dtype=np.int64), "score": data})
    )
    return session.sql(f"SELECT id FROM t ORDER BY score DESC LIMIT {K}")


def _served(data):
    # The server runs the query on the injector active at submit time.
    with TopKServer() as server:
        return server.submit(data, k=K).result(timeout=60).indices


#: door -> (run(data) -> rows, whether it selects the smallest)
DOORS = {
    "topk-auto": (lambda d: topk(d, K).indices, False),
    "topk-bitonic": (lambda d: topk(d, K, algorithm="bitonic").indices, False),
    "bottomk-auto": (lambda d: bottomk(d, K).indices, True),
    "bottomk-bitonic": (
        lambda d: bottomk(d, K, algorithm="bitonic").indices, True
    ),
    "adaptive": (lambda d: AdaptiveTopK().run(d, K).indices, False),
    "session-sql": (lambda d: _sql(d).column("id"), False),
    "resilient-executor": (lambda d: ResilientExecutor().run(d, K).indices, False),
    "server-submit": (_served, False),
}

ORACLE = "oracle"

#: The documented policy: oracle rows, or the typed error that surfaces.
#: No door but the resilient executor passes results through the
#: result-buffer site, so the silent flip only reaches its verification.
EXPECTED = {
    ("topk-auto", "device-lost"): DeviceLostError,
    ("topk-auto", "resource-exhausted"): ORACLE,
    ("topk-auto", "silent-flip"): ORACLE,
    ("topk-bitonic", "device-lost"): DeviceLostError,
    ("topk-bitonic", "resource-exhausted"): ResourceExhaustedError,
    ("topk-bitonic", "silent-flip"): ORACLE,
    ("bottomk-auto", "device-lost"): DeviceLostError,
    ("bottomk-auto", "resource-exhausted"): ORACLE,
    ("bottomk-auto", "silent-flip"): ORACLE,
    ("bottomk-bitonic", "device-lost"): DeviceLostError,
    ("bottomk-bitonic", "resource-exhausted"): ResourceExhaustedError,
    ("bottomk-bitonic", "silent-flip"): ORACLE,
    ("adaptive", "device-lost"): DeviceLostError,
    ("adaptive", "resource-exhausted"): ORACLE,
    ("adaptive", "silent-flip"): ORACLE,
    ("session-sql", "device-lost"): ORACLE,
    ("session-sql", "resource-exhausted"): ORACLE,
    ("session-sql", "silent-flip"): ORACLE,
    ("resilient-executor", "device-lost"): ORACLE,
    ("resilient-executor", "resource-exhausted"): ORACLE,
    ("resilient-executor", "silent-flip"): ORACLE,
    ("server-submit", "device-lost"): ORACLE,
    ("server-submit", "resource-exhausted"): ORACLE,
    ("server-submit", "silent-flip"): ORACLE,
}


@pytest.fixture
def data():
    # Distinct values: the oracle's rows are unambiguous.
    return np.random.default_rng(7).permutation(N).astype(np.float32)


def test_table_covers_every_door_and_fault():
    assert set(EXPECTED) == {(door, fault) for door in DOORS for fault in FAULTS}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("door", sorted(DOORS))
def test_front_door_failure_policy(door, fault, data):
    run, smallest = DOORS[door]
    injector = FaultInjector(seed=0, plans=[FAULTS[fault]])
    expected = EXPECTED[(door, fault)]
    if expected is ORACLE:
        with inject(injector):
            rows = run(data)
        oracle = reference_topk(-data if smallest else data, K)[1]
        assert np.array_equal(np.asarray(rows), oracle)
    else:
        with inject(injector), pytest.raises(expected):
            run(data)
    if fault != "silent-flip" or door == "resilient-executor":
        # Every cell but the silent flip on doors without a result-buffer
        # site really met its fault.
        assert injector.schedule()
