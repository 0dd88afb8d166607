"""Simulated PCIe transfers with bounded retry.

A host <-> device transfer is one ``"pcie-transfer"`` fault point.  A
failed transfer (an injected :class:`~repro.errors.TransferError`) is
re-issued up to :data:`TRANSFER_RETRIES` times, backing off 1 ms and
doubling per retry, before the error surfaces.  Backoff is simulated
time: a :class:`TransferRetries` tally charges it to the caller's trace as
one ``resilience-backoff`` kernel, so identical fault schedules price
identically.  The chunked pipeline stages every chunk through it and the
sharded executor gathers its candidates through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import observability as obs
from repro.errors import TransferError
from repro.gpu import faults
from repro.gpu.counters import ExecutionTrace, KernelCounters
from repro.gpu.timing import BACKOFF_KERNEL

#: Bounded retries for one failed PCIe transfer before the error surfaces.
TRANSFER_RETRIES = 3

#: Simulated backoff before the first re-issue; it doubles per retry.
TRANSFER_BACKOFF_SECONDS = 1e-3


@dataclass
class TransferRetries:
    """Running tally of the transfer retries one trace pays for."""

    count: int = 0
    backoff_seconds: float = 0.0

    def cross(self, detail: str) -> None:
        """Make one transfer, retrying a :class:`TransferError` with
        simulated backoff; the error surfaces once retries run out."""
        for attempt in range(TRANSFER_RETRIES + 1):
            try:
                faults.fault_point("pcie-transfer", detail)
                return
            except TransferError:
                if attempt == TRANSFER_RETRIES:
                    raise
                self.count += 1
                self.backoff_seconds += TRANSFER_BACKOFF_SECONDS * 2**attempt

    def charge(self, trace: ExecutionTrace, algorithm: str) -> None:
        """Append the tallied backoff to ``trace`` as one kernel and count
        the retries under ``resilience.retries``; no-op without retries."""
        if not self.count:
            return
        trace.kernels.append(
            KernelCounters(name=BACKOFF_KERNEL, fixed_seconds=self.backoff_seconds)
        )
        trace.notes["transfer_retries"] = float(self.count)
        registry = obs.active_metrics()
        if registry is not None:
            registry.counter(
                "resilience.retries",
                algorithm=algorithm,
                fault="TransferError",
            ).inc(self.count)
