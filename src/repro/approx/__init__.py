"""repro.approx — bucketed approximate top-k with a recall model.

The subsystem trades a quantified sliver of recall for wall-clock: the
input is split into ``b`` buckets, each bucket keeps its ``khat`` largest
elements with the exact register machinery, and the candidates merge
exactly — one streaming pass over the data instead of the exact bitonic
pipeline's multi-round reduction.  ``recall.expected_recall`` predicts the
loss analytically, ``recall.measured_recall`` verifies it empirically, and
``delegate`` adds the Dr. Top-k pre-filter that cuts merge traffic further.

See ``docs/approximate.md`` for the algorithm and derivation.
"""

from repro.approx.bench import (
    ApproxBenchReport,
    ApproxWorkload,
    run_approx_benchmark,
)
from repro.approx.bucketed import ApproxBucketTopK
from repro.approx.config import (
    DEFAULT_DELEGATE_GROUP,
    DEFAULT_OVERSAMPLE,
    ApproxConfig,
    default_config,
)
from repro.approx.delegate import (
    group_delegates,
    group_members,
)
from repro.approx.recall import (
    delegate_expected_recall,
    expected_recall,
    measured_recall,
)

__all__ = [
    "ApproxBenchReport",
    "ApproxBucketTopK",
    "ApproxConfig",
    "ApproxWorkload",
    "run_approx_benchmark",
    "DEFAULT_DELEGATE_GROUP",
    "DEFAULT_OVERSAMPLE",
    "default_config",
    "delegate_expected_recall",
    "expected_recall",
    "group_delegates",
    "group_members",
    "measured_recall",
]
