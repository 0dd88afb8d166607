"""Deterministic fault injection for the simulated device stack.

Real GPUs fail in ways that are nearly impossible to reproduce on demand:
a device drops off the bus mid-launch, an ECC error flips a bit in a read,
the watchdog kills a long kernel, a PCIe staging transfer aborts.  Because
this library *simulates* its hardware, those failures can be made exactly
reproducible: a :class:`FaultInjector` is seeded, plan-driven, and fires
either on the Nth matching call to a site or with a seeded Bernoulli draw,
so the same seed always produces the same fault schedule.

Injection sites are threaded through the device stack as cheap
:func:`fault_point` calls (one context-var read when no injector is
installed — the same zero-overhead discipline as
:mod:`repro.observability`):

* ``"kernel-launch"``    — every :meth:`ExecutionTrace.launch`
  (detail = kernel name); the canonical place a ``DeviceLostError``
  surfaces.
* ``"simt-barrier"``     — every ``__syncthreads()`` of the micro SIMT
  executor; where the simulated watchdog trips.
* ``"pcie-transfer"``    — host <-> device staging in the chunked pipeline
  (detail = ``"chunk-<index>"``) and the sharded executor's candidate
  gather (detail = ``"shard-gather"``), both retried through
  :class:`~repro.gpu.transfer.TransferRetries`.
* ``"device-launch"``    — per-shard launch admission in
  :class:`~repro.sharding.ShardedTopK` (detail = ``"shard#<index>"``,
  ``"shard#<index>:redistribute"`` for a recovery piece), GPU shards
  only: a CPU shard has no simulated device to lose.
* ``"result-transfer"``  — the D2H copy of a finished result in the
  resilient executor.
* ``"shared-memory-read"`` / ``"global-memory-read"`` — value-filter sites
  (silent plans flip a bit in the value instead of raising).
* ``"result-buffer"``    — array-filter site: a silent plan flips one bit
  of one element of a finished result, which the executor's verification
  hooks must catch.

Usage::

    from repro.gpu import faults

    plan = faults.FaultPlan(site="kernel-launch", fault="device-lost", nth=2)
    with faults.inject(faults.FaultInjector(seed=0, plans=[plan])):
        result = ResilientExecutor().run(values, k=32)
"""

from __future__ import annotations

import random
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    DeviceLostError,
    FaultError,
    KernelTimeoutError,
    MemoryCorruptionError,
    ResourceExhaustedError,
    TransferError,
)

#: Fault type name -> exception class raised at a firing fault point.
FAULT_ERRORS: dict[str, type] = {
    "device-lost": DeviceLostError,
    "memory-corruption": MemoryCorruptionError,
    "kernel-timeout": KernelTimeoutError,
    "transfer-error": TransferError,
    "resource-exhausted": ResourceExhaustedError,
}

#: All injectable fault type names, in a stable order for campaigns.
FAULT_TYPES = tuple(sorted(FAULT_ERRORS))


@dataclass
class FaultPlan:
    """One planned fault.

    Either ``nth`` (fire on the Nth matching call, 1-based) or
    ``probability`` (seeded Bernoulli per matching call) must select the
    firing calls.  ``max_injections`` bounds how often the plan fires
    (``None`` = unbounded).  ``match`` restricts the plan to calls whose
    detail string contains it (e.g. a kernel or device name).  A ``silent``
    plan does not raise: at value/array sites it flips a bit in the data
    instead, modeling undetected corruption that only result verification
    can catch.
    """

    site: str
    fault: str
    nth: int | None = None
    probability: float = 0.0
    max_injections: int | None = 1
    match: str | None = None
    silent: bool = False

    def __post_init__(self) -> None:
        if self.fault not in FAULT_ERRORS:
            known = ", ".join(FAULT_TYPES)
            raise ValueError(f"unknown fault type {self.fault!r}; known: {known}")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")


@dataclass(frozen=True)
class Injection:
    """One recorded firing: the fault schedule entry."""

    site: str
    detail: str
    fault: str
    call_index: int
    silent: bool


class FaultInjector:
    """Seeded, plan-driven producer of typed faults.

    The injector is deterministic: plans fire on exact call counts or on
    draws from a private ``random.Random(seed)``, so identical seeds and
    identical call sequences produce identical fault schedules.  Every
    firing is appended to :attr:`injections` for later inspection.
    """

    def __init__(self, seed: int = 0, plans: list[FaultPlan] | None = None):
        self.seed = seed
        self.plans: list[FaultPlan] = list(plans or [])
        self._rng = random.Random(seed)
        #: Matching-call counts per plan index.
        self._calls: dict[int, int] = {}
        #: Firing counts per plan index.
        self._fired: dict[int, int] = {}
        self.injections: list[Injection] = []

    def add(self, plan: FaultPlan) -> "FaultInjector":
        """Append a plan (chainable)."""
        self.plans.append(plan)
        return self

    @property
    def num_injections(self) -> int:
        return len(self.injections)

    def schedule(self) -> list[tuple[str, str, str]]:
        """The realized fault schedule as (site, detail, fault) tuples."""
        return [(i.site, i.detail, i.fault) for i in self.injections]

    # -- firing logic ----------------------------------------------------

    def _fire(self, site: str, detail: str) -> FaultPlan | None:
        """The first plan that fires for this call, if any."""
        chosen: FaultPlan | None = None
        for index, plan in enumerate(self.plans):
            if plan.site != site:
                continue
            if plan.match is not None and plan.match not in detail:
                continue
            count = self._calls.get(index, 0) + 1
            self._calls[index] = count
            fired = self._fired.get(index, 0)
            if plan.max_injections is not None and fired >= plan.max_injections:
                continue
            hit = False
            if plan.nth is not None:
                hit = count == plan.nth
            elif plan.probability > 0.0:
                hit = self._rng.random() < plan.probability
            if hit and chosen is None:
                self._fired[index] = fired + 1
                self.injections.append(
                    Injection(
                        site=site,
                        detail=detail,
                        fault=plan.fault,
                        call_index=count,
                        silent=plan.silent,
                    )
                )
                self._record(site, detail, plan)
                chosen = plan
        return chosen

    def _record(self, site: str, detail: str, plan: FaultPlan) -> None:
        """Publish the firing to the observability layer (if active)."""
        from repro import observability as obs

        registry = obs.active_metrics()
        if registry is not None:
            registry.counter(
                "faults.injected", site=site, fault=plan.fault
            ).inc()
        tracer = obs.current_tracer()
        if tracer is not None:
            with tracer.span(
                f"fault:{plan.fault}",
                category="fault",
                site=site,
                detail=detail,
                silent=plan.silent,
            ):
                pass

    # -- site APIs -------------------------------------------------------

    def _raise(self, plan: FaultPlan, site: str, detail: str) -> None:
        error_type = FAULT_ERRORS[plan.fault]
        message = f"injected {plan.fault} at {site}" + (
            f" ({detail})" if detail else ""
        )
        if issubclass(error_type, FaultError):
            raise error_type(message, site=site, detail=detail)
        raise error_type(message)

    def check(self, site: str, detail: str = "") -> None:
        """Raise the planned typed fault if a non-silent plan fires here.

        A *silent* plan firing at a plain fault point is recorded but has
        no effect (there is no value to corrupt).
        """
        plan = self._fire(site, detail)
        if plan is None or plan.silent:
            return
        self._raise(plan, site, detail)

    def filter_value(self, site: str, value: float) -> float:
        """Memory-read site: bit-flip (silent) or raise (non-silent)."""
        plan = self._fire(site, "")
        if plan is None:
            return value
        if plan.silent:
            return flip_float_bit(value, self._rng.randrange(0, 52))
        self._raise(plan, site, "")

    def filter_array(self, site: str, values: np.ndarray, detail: str = "") -> None:
        """Array site: flip one bit of one element (silent) or raise."""
        plan = self._fire(site, detail)
        if plan is None:
            return
        if not plan.silent:
            self._raise(plan, site, detail)
        if len(values) == 0:
            return
        index = self._rng.randrange(0, len(values))
        flip_array_bit(values, index, self._rng)


def flip_float_bit(value: float, bit: int) -> float:
    """``value`` with one mantissa/exponent bit of its float64 image flipped."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(value)))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << bit)))
    return flipped

def flip_array_bit(values: np.ndarray, index: int, rng: random.Random) -> None:
    """Flip one random bit of ``values[index]`` in place (any dtype)."""
    width = values.dtype.itemsize * 8
    bit = rng.randrange(0, width)
    uint_dtype = np.dtype(f"u{values.dtype.itemsize}")
    view = values.view(uint_dtype)
    view[index] ^= uint_dtype.type(1 << bit)


_INJECTOR: ContextVar[FaultInjector | None] = ContextVar(
    "repro_fault_injector", default=None
)


def active_injector() -> FaultInjector | None:
    """The installed injector, or None when fault injection is disabled."""
    return _INJECTOR.get()


@contextmanager
def inject(injector: FaultInjector):
    """Install ``injector`` for the duration of a ``with`` block."""
    token = _INJECTOR.set(injector)
    try:
        yield injector
    finally:
        _INJECTOR.reset(token)


@contextmanager
def suspended():
    """Disable fault injection for the duration of a ``with`` block.

    Cost models *predict* runtimes by building the same execution traces
    the algorithms would; those trace constructions are host-side math, not
    device activity, so they must not trip injection sites meant for real
    kernel launches.
    """
    token = _INJECTOR.set(None)
    try:
        yield
    finally:
        _INJECTOR.reset(token)


def fault_point(site: str, detail: str = "") -> None:
    """Declare an injection site.

    The call every instrumented layer makes; when no injector is installed
    it performs one context-var read and returns.  With an injector it may
    raise a typed :class:`~repro.errors.ReproError` subclass.
    """
    injector = _INJECTOR.get()
    if injector is None:
        return
    injector.check(site, detail)


def filter_read(site: str, value: float) -> float:
    """Value-filter variant of :func:`fault_point` for memory reads."""
    injector = _INJECTOR.get()
    if injector is None:
        return value
    return injector.filter_value(site, value)


def filter_result(site: str, values: np.ndarray, detail: str = "") -> None:
    """Array-filter variant of :func:`fault_point` for finished buffers."""
    injector = _INJECTOR.get()
    if injector is None:
        return
    injector.filter_array(site, values, detail)
