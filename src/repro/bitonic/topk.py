"""Bitonic top-k — the paper's contribution, as a :class:`TopKAlgorithm`.

Functionally the algorithm ranks canonical keys
(:func:`repro.algorithms.keys.sort_keys`: each row's value code with its
row, padded to a power of two with key 0, which ranks below every real
row), computes the output of the local-sort / merge / rebuild network
(:func:`repro.bitonic.operators.reduce_topk`: its runs sorted, the paper's
merge one ``np.maximum`` of packed keys against the reversed partner run),
and reads the top-k rows back from the surviving keys —
exactly the oracle's rows, NaN last and lower row first on ties.  The
execution trace carries the cost: it models the SortReducer /
BitonicReducer kernel pipeline (:mod:`repro.bitonic.kernels`) step by
step under the configured optimization flags, at the width of the input
dtype.  :func:`repro.bitonic.operators.apply_step` remains the network's
step-by-step reference.

The key robustness property of Section 6.4 falls out of the construction:
the network's comparison sequence is data-independent, so the trace — and
therefore the simulated runtime — is identical for every input
distribution.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms import keys as keycodec
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.bitonic.kernels import build_trace, memory_overhead_bytes
from repro.bitonic.network import next_pow2
from repro.bitonic.operators import reduce_topk
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec


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

    def run(self, data: np.ndarray, k: int, model_n: int | None = None) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        if not self.supports(n, k, data.dtype):
            raise InvalidParameterError(
                f"bitonic top-k supports k <= {self.max_k}, got {k}"
            )
        network_k = next_pow2(k)
        padded_n = max(next_pow2(n), network_k)
        keys, rows = keycodec.sort_keys(data, padded_n)
        with obs.span(
            "phase:bitonic-reduce",
            category="phase",
            network_k=network_k,
            padded_n=padded_n,
        ):
            top_keys, top_rows = reduce_topk(keys, network_k, rows)
        indices = keycodec.key_rows(top_keys, top_rows, k)
        values = data[indices]

        trace = build_trace(
            model_n or n, network_k, data.dtype.itemsize, self.flags, self.device
        )
        trace.notes["network_k"] = network_k
        return self._result(values, indices, trace, k, n, model_n)

    def memory_overhead(self, n: int, dtype: np.dtype) -> int:
        """Auxiliary buffer bytes (n/B words — Section 4.3 discussion)."""
        return memory_overhead_bytes(n, np.dtype(dtype).itemsize, self.flags)
