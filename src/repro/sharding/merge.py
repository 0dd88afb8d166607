"""Deterministic k-way merge of per-shard top-k candidates.

Merge semantics are *exactly* the library's canonical total order — the
order of :func:`repro.algorithms.keys.canonical_order`, which every exact
kernel and the :func:`repro.algorithms.base.reference_topk` oracle share:

* values descending (IEEE-754 NaN ordered last for floats, -0.0 equal to
  +0.0);
* ties broken by lower **global** row index first.

Because shards are contiguous row ranges, adding each range's start to
its local indices preserves the intra-shard order, so merging the
per-shard candidates under this order is bit-equal to running the
single-device selection on the whole input — the order-safety property
that makes top-k shardable at all.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import keys as keycodec


def merge_topk(
    values: np.ndarray, indices: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The global top-k of concatenated per-shard candidates.

    ``values``/``indices`` are the gathered candidates (global row
    indices); returns ``(values, indices)`` of the k winners in canonical
    order: value codes descending, then the lower global index, so equal
    values (and NaN groups) resolve to the lower global row, matching the
    single-device answer bit for bit.  The cut is
    :func:`repro.algorithms.keys.canonical_topk`: one partition finds the
    k-th code and only the c candidates at or above it are sorted, so n
    candidates cost O(n + c log c).
    """
    order = keycodec.canonical_topk(keycodec.encode(values), indices, k)
    return values[order], indices[order]
