"""Every exact kernel returns the oracle's rows, ties and NaN included.

One matrix crosses each exact registry kernel, ``batched_topk`` and
``ShardedTopK`` at 1, 2 and 4 shards (with each exact kernel pinned as the
inner kernel) with all six supported dtypes, three tie-heavy input shapes
and several ``(n, k)``.  Each answer must equal ``reference_topk``'s: the
same rows, and the same values bit for bit.
"""

import numpy as np
import pytest

from repro.algorithms.base import SUPPORTED_DTYPES, reference_topk
from repro.algorithms.registry import create, list_algorithms
from repro.core.batched import batched_topk
from repro.sharding.executor import ShardedTopK

#: Every exact registry kernel but the sharded executor, which runs them.
KERNELS = [
    name for name in list_algorithms() if name not in ("approx-bucket", "sharded")
]
SHARDED = [("sharded", (shards, inner)) for shards in (1, 2, 4) for inner in KERNELS]
RUNNERS = [(name, None) for name in [*KERNELS, "sharded", "batched"]] + SHARDED

SIZES = (1, 7, 513, 4096)


def _runner_id(runner):
    name, option = runner
    return name if option is None else f"sharded{option[0]}-{option[1]}"


def _inputs(dtype, n):
    """All-equal, few distinct values, and the dtype's special values."""
    generator = np.random.default_rng(n)
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5]
    else:
        info = np.iinfo(dtype)
        special = [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
    low = 0 if dtype.kind == "u" else -2
    return {
        "all-equal": np.full(n, 3, dtype=dtype),
        "few-distinct": generator.integers(low, low + 4, n).astype(dtype),
        "special": generator.choice(np.array(special, dtype=dtype), n),
    }


def _answer(runner, option, data, k):
    """The runner's (values, indices), or None when it cannot run."""
    if runner == "batched":
        result = batched_topk(data[np.newaxis], k)
        return result.values[0], result.indices[0]
    if runner == "sharded" and option is not None:
        shards, inner = option
        algorithm = ShardedTopK(shards=shards, inner=inner)
    else:
        algorithm = create(runner)
    if not algorithm.supports(len(data), k, data.dtype):
        return None
    result = algorithm.run(data, k)
    return result.values, result.indices


@pytest.mark.parametrize("dtype", SUPPORTED_DTYPES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("runner", RUNNERS, ids=_runner_id)
def test_rows_and_values_match_the_oracle(runner, dtype):
    for n in SIZES:
        for shape, data in _inputs(dtype, n).items():
            for k in [k for k in sorted({1, 4, n}) if k <= n]:
                answer = _answer(*runner, data, k)
                if answer is None:
                    continue
                values, indices = answer
                expected_values, expected_rows = reference_topk(data, k)
                case = f"{shape} n={n} k={k}"
                assert indices.tolist() == expected_rows.tolist(), case
                assert values.dtype == expected_values.dtype, case
                assert values.tobytes() == expected_values.tobytes(), case
