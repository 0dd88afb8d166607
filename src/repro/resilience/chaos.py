"""Seeded chaos campaign: randomized fault injection with an exact oracle.

Each trial draws a target (one of the five top-k algorithms, the
two-device sharded executor, or the serving path), a workload, and a
fault plan from one seeded PRNG, runs the target under injection, and
classifies the outcome:

* ``exact``       — the run survived and returned the exact top-k;
* ``typed-error`` — the run failed, but with a typed
  :class:`~repro.errors.ReproError` (an acceptable loss: every device
  can be down);
* ``wrong-answer``— the run "succeeded" with an incorrect result — the
  outcome resilience exists to make impossible;
* ``unhandled``   — a non-:class:`~repro.errors.ReproError` exception
  escaped — equally disqualifying.

The campaign *survives* when no trial is a wrong answer or an unhandled
exception.  Identical seeds reproduce identical schedules, decisions, and
simulated timings, so a chaos failure is always replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import reference_topk
from repro.errors import ReproError
from repro.gpu.faults import FaultInjector, FaultPlan, inject
from repro.resilience.executor import ResilientExecutor
from repro.sharding.executor import ShardedTopK

#: Targets a campaign cycles through: the five paper algorithms (run
#: under the resilient executor), the sharded executor over a two-device
#: group, and the serving path.
ALGORITHM_TARGETS = (
    "bitonic",
    "radix-select",
    "bucket-select",
    "sort",
    "per-thread",
)
MULTI_DEVICE_TARGET = "sharded"
SERVING_TARGET = "serving"
TARGETS = ALGORITHM_TARGETS + (MULTI_DEVICE_TARGET, SERVING_TARGET)

#: (site, fault, silent) triples a single-device trial may draw.
ALGORITHM_FAULTS = (
    ("kernel-launch", "device-lost", False),
    ("kernel-launch", "kernel-timeout", False),
    ("kernel-launch", "resource-exhausted", False),
    ("result-transfer", "transfer-error", False),
    ("result-buffer", "memory-corruption", True),
    ("result-buffer", "memory-corruption", False),
)

#: The analogue for the multi-device target.
MULTI_DEVICE_FAULTS = (
    ("device-launch", "device-lost", False),
    ("pcie-transfer", "transfer-error", False),
    ("kernel-launch", "device-lost", False),
)

#: Faults the serving trial may draw while queries flow through the
#: batcher + dispatcher.  Only *signalled* kernel-launch faults: the
#: serving path does not re-verify device buffers (silent-corruption
#: coverage stays with the algorithm targets), and the result-transfer
#: site lives inside the resilient fallback the serving path only
#: reaches after a launch fault.
SERVING_FAULTS = (
    ("kernel-launch", "device-lost", False),
    ("kernel-launch", "kernel-timeout", False),
    ("kernel-launch", "resource-exhausted", False),
)

OUTCOMES = ("exact", "typed-error", "wrong-answer", "unhandled")


@dataclass(frozen=True)
class ChaosTrial:
    """One randomized trial and its verdict."""

    index: int
    target: str
    n: int
    k: int
    site: str
    fault: str
    silent: bool
    injections: int
    outcome: str
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "target": self.target,
            "n": self.n,
            "k": self.k,
            "site": self.site,
            "fault": self.fault,
            "silent": self.silent,
            "injections": self.injections,
            "outcome": self.outcome,
            "error": self.error,
        }


@dataclass
class ChaosReport:
    """A finished campaign."""

    seed: int
    trials: list[ChaosTrial] = field(default_factory=list)

    def count(self, outcome: str) -> int:
        return sum(1 for trial in self.trials if trial.outcome == outcome)

    @property
    def survived(self) -> bool:
        """No wrong answer, no unhandled exception, across every trial."""
        return self.count("wrong-answer") == 0 and self.count("unhandled") == 0

    def failures(self) -> list[ChaosTrial]:
        return [
            trial
            for trial in self.trials
            if trial.outcome in ("wrong-answer", "unhandled")
        ]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": [trial.to_dict() for trial in self.trials],
            "outcomes": {outcome: self.count(outcome) for outcome in OUTCOMES},
            "survived": self.survived,
        }

    def render(self) -> str:
        """Human-readable survival report."""
        lines = [
            f"chaos campaign: seed={self.seed} trials={len(self.trials)}",
            "",
        ]
        width = max(len(outcome) for outcome in OUTCOMES)
        for outcome in OUTCOMES:
            lines.append(f"  {outcome:<{width}}  {self.count(outcome):>5}")
        lines.append("")
        for target in TARGETS:
            subset = [t for t in self.trials if t.target == target]
            if not subset:
                continue
            exact = sum(1 for t in subset if t.outcome == "exact")
            typed = sum(1 for t in subset if t.outcome == "typed-error")
            bad = len(subset) - exact - typed
            verdict = "ok" if bad == 0 else "FAIL"
            lines.append(
                f"  {target:<14} {len(subset):>4} trials  "
                f"{exact:>4} exact  {typed:>3} typed  {bad:>3} bad  [{verdict}]"
            )
        lines.append("")
        verdict = "SURVIVED" if self.survived else "FAILED"
        lines.append(
            f"{verdict}: every fault either recovered to the exact top-k "
            "or raised a typed error."
            if self.survived
            else f"{verdict}: {len(self.failures())} trial(s) returned a "
            "wrong answer or leaked an untyped exception."
        )
        return "\n".join(lines)


def _make_data(rng: np.random.Generator, n: int, with_inf: bool) -> np.ndarray:
    data = rng.standard_normal(n).astype(np.float32)
    if with_inf:
        positions = rng.integers(0, n, size=max(1, n // 256))
        data[positions] = np.float32(np.inf) * rng.choice(
            np.array([1.0, -1.0], dtype=np.float32), size=len(positions)
        )
    return data


def _run_trial(
    index: int, master: random.Random, seed: int
) -> ChaosTrial:
    target = master.choice(TARGETS)
    n = master.choice((512, 1024, 2048, 4096))
    k = min(n, master.choice((1, 8, 32, 64)))
    if target == MULTI_DEVICE_TARGET:
        faults_menu = MULTI_DEVICE_FAULTS
    elif target == SERVING_TARGET:
        faults_menu = SERVING_FAULTS
    else:
        faults_menu = ALGORITHM_FAULTS
    site, fault, silent = master.choice(faults_menu)
    plan = FaultPlan(
        site=site,
        fault=fault,
        nth=master.randint(1, 3) if master.random() < 0.5 else None,
        probability=round(master.uniform(0.2, 0.9), 3),
        max_injections=master.choice((1, 2, 3)),
        silent=silent,
    )
    if target == SERVING_TARGET:
        return _run_serving_trial(index, n, k, plan, seed)
    data = _make_data(
        np.random.default_rng(seed), n, with_inf=master.random() < 0.25
    )
    expected_values, _ = reference_topk(data, k)

    injector = FaultInjector(seed=seed, plans=[plan])
    outcome = "unhandled"
    error = ""
    result = None
    try:
        with inject(injector):
            if target == MULTI_DEVICE_TARGET:
                result = ShardedTopK(shards=2).run(data, k)
            else:
                result = ResilientExecutor().run(data, k, algorithm=target)
    except ReproError as exc:
        outcome = "typed-error"
        error = type(exc).__name__
    except Exception as exc:  # noqa: BLE001 — the class under test
        outcome = "unhandled"
        error = f"{type(exc).__name__}: {exc}"
    else:
        if np.array_equal(result.values, expected_values):
            outcome = "exact"
        else:
            outcome = "wrong-answer"
            error = "result differs from the sort oracle"
    return ChaosTrial(
        index=index,
        target=target,
        n=n,
        k=k,
        site=site,
        fault=fault,
        silent=silent,
        injections=len(injector.injections),
        outcome=outcome,
        error=error,
    )


def _run_serving_trial(
    index: int, n: int, k: int, plan: FaultPlan, seed: int
) -> ChaosTrial:
    """One trial against the serving path: faults fire while queries flow
    through the batcher + dispatcher thread.

    Six queries with two same-shape pairs, so the trial exercises both
    fused batch execution and singleton launches under injection.  Each
    request captures the active injector at submit time and the batcher
    re-installs it around execution, so injection reaches the dispatcher
    thread deterministically.
    """
    from repro.serving import TopKServer

    rng = np.random.default_rng(seed)
    half = max(k, n // 2)
    shapes = [(n, k), (n, k), (half, k), (half, k), (n, max(1, k // 2)), (n, k)]
    payloads = [
        rng.standard_normal(length).astype(np.float32) for length, _ in shapes
    ]
    expected = [
        reference_topk(payload, kk)[0]
        for payload, (_, kk) in zip(payloads, shapes)
    ]
    injector = FaultInjector(seed=seed, plans=[plan])
    worst = "exact"
    error = ""
    server = TopKServer(auto_start=False)
    try:
        with inject(injector):
            futures = [
                server.submit(payload, kk)
                for payload, (_, kk) in zip(payloads, shapes)
            ]
        server.start()
        server.flush()
        for future, expected_values in zip(futures, expected):
            try:
                outcome = future.result(timeout=60)
            except ReproError as exc:
                if worst == "exact":
                    worst = "typed-error"
                    error = type(exc).__name__
            except Exception as exc:  # noqa: BLE001 — the class under test
                worst = "unhandled"
                error = f"{type(exc).__name__}: {exc}"
            else:
                if not np.array_equal(outcome.values, expected_values):
                    worst = "wrong-answer"
                    error = "served result differs from the sort oracle"
    finally:
        server.close()
    return ChaosTrial(
        index=index,
        target=SERVING_TARGET,
        n=n,
        k=k,
        site=plan.site,
        fault=plan.fault,
        silent=plan.silent,
        injections=len(injector.injections),
        outcome=worst,
        error=error,
    )


def run_campaign(seed: int = 0, trials: int = 50) -> ChaosReport:
    """Run ``trials`` randomized fault-injection trials from one seed."""
    master = random.Random(seed)
    report = ChaosReport(seed=seed)
    for index in range(trials):
        trial_seed = master.randrange(2**31)
        report.trials.append(_run_trial(index, master, trial_seed))
    return report
