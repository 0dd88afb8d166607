"""Dr. Top-k-style delegate pre-filter (Gaihre et al., SC 2021).

Split the input into groups of ``group`` consecutive elements and reduce
each group to its maximum — the group's *delegate*.  Any algorithm that
selects the top-k **groups by delegate** and then finishes on only those
groups' elements reads ``surviving_groups * group`` elements instead of n
in its selection phase — the global-memory-traffic cut the paper reports.

Keeping every group whose delegate ties or beats the k-th largest
delegate would be lossless: a group containing a top-k element has a
delegate at least that element, hence at least the k-th overall value;
and because at most k groups contain top-k elements, the k-th largest
delegate cannot exceed the k-th overall value.
:class:`repro.approx.bucketed.ApproxBucketTopK` (when
``ApproxConfig.delegate_group`` is set) replaces that exact delegate
selection with the bucketed selection, trading a quantified recall loss
(:func:`repro.approx.recall.delegate_expected_recall`) for a single-pass
filter; this module supplies the delegates and their groups' members.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.keys import encode
from repro.errors import InvalidParameterError


def group_delegates(data: np.ndarray, group: int) -> np.ndarray:
    """Order-preserving unsigned codes of each group's maximum.

    Groups are runs of ``group`` consecutive elements (the coalesced
    layout); a short final group is padded with the minimum code.
    """
    if group < 1:
        raise InvalidParameterError(f"group must be at least 1, got {group}")
    codes = encode(np.asarray(data))
    num_groups = math.ceil(len(codes) / group)
    padded = np.zeros(num_groups * group, dtype=codes.dtype)
    padded[: len(codes)] = codes
    return padded.reshape(num_groups, group).max(axis=1)


def group_members(n: int, groups: np.ndarray, group: int) -> np.ndarray:
    """Original element indices belonging to the given group ids."""
    starts = groups.astype(np.int64) * group
    members = (starts[:, None] + np.arange(group, dtype=np.int64)).ravel()
    return members[members < n]

