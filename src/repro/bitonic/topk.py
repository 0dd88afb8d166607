"""Bitonic top-k — the paper's contribution, as a :class:`TopKAlgorithm`.

Functionally the algorithm pads the input to a power of two with sentinel
minimum values (NaN rows become the sentinel too, so they rank below every
real value, as in the oracle), runs the local-sort / merge / rebuild reduction
(:mod:`repro.bitonic.operators`), and returns the top-k values with their
row indices.  The execution trace models the SortReducer / BitonicReducer
kernel pipeline (:mod:`repro.bitonic.kernels`) under the configured
optimization flags.

The key robustness property of Section 6.4 falls out of the construction:
the network's comparison sequence is data-independent, so the trace — and
therefore the simulated runtime — is identical for every input
distribution.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.bitonic.kernels import build_trace, memory_overhead_bytes
from repro.bitonic.operators import reduce_topk
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec


def padding_sentinel(dtype: np.dtype):
    """The minimum representable value of a dtype, used to pad the input."""
    if dtype.kind == "f":
        return -np.inf
    return np.iinfo(dtype).min


def _next_power_of_two(value: int) -> int:
    return 1 << max(0, (value - 1).bit_length())


def pad_rows(data: np.ndarray, padded_n: int) -> np.ndarray:
    """``data`` copied into a sentinel-padded buffer ``padded_n`` wide.

    NaN rows are written as the sentinel too, so the network ranks them
    with the padding, below every real value, and never compares a NaN;
    :func:`repair_padded_indices` restores them after the real minima.
    Works on one row or a ``(rows, n)`` batch.
    """
    sentinel = padding_sentinel(data.dtype)
    working = np.full(data.shape[:-1] + (padded_n,), sentinel, dtype=data.dtype)
    real = working[..., : data.shape[-1]]
    real[...] = data
    if data.dtype.kind == "f":
        np.copyto(real, sentinel, where=np.isnan(data))
    return working


def sentinel_rows(data: np.ndarray) -> np.ndarray:
    """The real rows :func:`pad_rows` runs as the sentinel, in the oracle's
    order: rows holding the dtype's minimum, then the NaN rows."""
    nan = np.isnan(data) if data.dtype.kind == "f" else False
    minima = np.flatnonzero(data == padding_sentinel(data.dtype))
    return np.concatenate([minima, np.flatnonzero(nan)])


def repair_padded_indices(
    data: np.ndarray, values: np.ndarray, indices: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Repair result slots that hold a padding slot or a NaN row.

    Both enter the network as the dtype's minimum (:func:`pad_rows`), so
    they reach the top-k only where it reaches down to that value.  Such
    slots are refilled, lowest row first, with the real rows equal to the
    minimum that the result does not hold yet, then with the NaN rows; NaN
    entries go last — the oracle's order (value descending, NaN last).
    Returns the repaired ``(values, indices)``.

    Shared by the single-row :class:`BitonicTopK` and the batched kernel in
    :mod:`repro.core.batched`, which keeps their tie-breaking bit-identical.
    """
    broken = indices >= n
    if data.dtype.kind == "f":
        broken[~broken] = np.isnan(data[indices[~broken]])
    if not broken.any():
        return values, indices
    used = set(indices[~broken].tolist())
    slots = np.flatnonzero(broken)
    replacements = [row for row in sentinel_rows(data).tolist() if row not in used]
    indices = indices.copy()
    indices[slots] = replacements[: len(slots)]
    values = data[indices]
    if data.dtype.kind == "f":
        order = np.argsort(np.isnan(values), kind="stable")
        values, indices = values[order], indices[order]
    return values, indices


class BitonicTopK(TopKAlgorithm):
    """The paper's bitonic top-k algorithm (Sections 3.2 and 4.3)."""

    name = "bitonic"

    #: The paper evaluates k up to 1024; shared memory bounds k at twice the
    #: maximum thread-block size (Section 4.3, "Operating in Shared Memory").
    max_k = 2048

    def __init__(
        self,
        device: DeviceSpec | None = None,
        flags: OptimizationFlags = FULL,
    ):
        super().__init__(device)
        self.flags = flags

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        return 1 <= k <= self.max_k

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        if not self.supports(n, k, data.dtype):
            raise InvalidParameterError(
                f"bitonic top-k supports k <= {self.max_k}, got {k}"
            )
        network_k = _next_power_of_two(k)
        padded_n = max(_next_power_of_two(n), network_k)
        working = pad_rows(data, padded_n)
        payload = np.arange(padded_n, dtype=np.int64)
        with obs.span(
            "phase:bitonic-reduce",
            category="phase",
            network_k=network_k,
            padded_n=padded_n,
        ):
            top_values, top_payload = reduce_topk(working, network_k, payload)
        values, indices = repair_padded_indices(
            data, top_values[:k].copy(), top_payload[:k].copy(), n
        )

        trace = build_trace(
            model_n or n, network_k, data.dtype.itemsize, self.flags, self.device
        )
        trace.notes["network_k"] = network_k
        return self._result(values, indices, trace, k, n, model_n)

    def memory_overhead(self, n: int, dtype: np.dtype) -> int:
        """Auxiliary buffer bytes (n/B words — Section 4.3 discussion)."""
        return memory_overhead_bytes(n, np.dtype(dtype).itemsize, self.flags)
