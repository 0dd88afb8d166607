"""Tests for GROUP BY aggregates (SUM / MIN / MAX / AVG / COUNT)."""

import numpy as np
import pytest

from repro.engine import Session
from repro.engine.executor import QueryExecutor
from repro.engine.table import make_table
from repro.errors import UnsupportedQueryError


@pytest.fixture
def table():
    return make_table(
        "sales",
        {
            "region": np.array([0, 1, 0, 1, 2, 0], dtype=np.int32),
            "amount": np.array([10.0, 20.0, 30.0, 5.0, 7.0, 2.0], dtype=np.float64),
        },
    )


@pytest.fixture
def executor(table, device):
    return QueryExecutor(table, device)


class TestAggregates:
    def test_sum(self, executor):
        result = executor.sql(
            "SELECT region, SUM(amount) AS total FROM sales GROUP BY region "
            "ORDER BY total DESC LIMIT 3"
        )
        assert result.column("region").tolist() == [0, 1, 2]
        assert result.column("total").tolist() == [42.0, 25.0, 7.0]

    def test_max_and_min(self, executor):
        result = executor.sql(
            "SELECT region, MAX(amount) AS biggest, MIN(amount) AS smallest "
            "FROM sales GROUP BY region ORDER BY biggest DESC LIMIT 3"
        )
        assert result.column("biggest").tolist() == [30.0, 20.0, 7.0]
        assert result.column("smallest").tolist() == [2.0, 5.0, 7.0]

    def test_avg(self, executor):
        result = executor.sql(
            "SELECT region, AVG(amount) AS mean FROM sales GROUP BY region "
            "ORDER BY mean DESC LIMIT 3"
        )
        assert result.column("mean").tolist() == [14.0, 12.5, 7.0]

    def test_count_alongside_sum(self, executor):
        result = executor.sql(
            "SELECT region, COUNT() AS n, SUM(amount) AS total FROM sales "
            "GROUP BY region ORDER BY n DESC LIMIT 1"
        )
        assert result.column("n").tolist() == [3]
        assert result.column("total").tolist() == [42.0]

    def test_aggregate_of_expression(self, executor):
        result = executor.sql(
            "SELECT region, SUM(amount * 2) AS doubled FROM sales "
            "GROUP BY region ORDER BY doubled DESC LIMIT 1"
        )
        assert result.column("doubled").tolist() == [84.0]

    def test_order_by_group_column(self, executor):
        result = executor.sql(
            "SELECT region, COUNT() AS n FROM sales GROUP BY region "
            "ORDER BY region ASC LIMIT 3"
        )
        assert result.column("region").tolist() == [0, 1, 2]

    def test_with_filter(self, executor):
        result = executor.sql(
            "SELECT region, SUM(amount) AS total FROM sales "
            "WHERE amount > 6 GROUP BY region ORDER BY total DESC LIMIT 3"
        )
        assert result.column("total").tolist() == [40.0, 20.0, 7.0]

    def test_order_by_unknown_alias_rejected(self, executor):
        with pytest.raises(UnsupportedQueryError):
            executor.sql(
                "SELECT region, COUNT() AS n FROM sales GROUP BY region "
                "ORDER BY amount DESC LIMIT 3"
            )

    def test_group_by_without_aggregate_rejected(self, executor):
        with pytest.raises(UnsupportedQueryError):
            executor.sql("SELECT region FROM sales GROUP BY region LIMIT 1")


_ALL_AGGREGATES = (
    "SELECT g, COUNT() AS n, SUM(v) AS total, AVG(v) AS mean, "
    "MIN(v) AS lo, MAX(v) AS hi FROM t"
)


def _reference(keys, values, mask):
    """Groups and aggregates of the matched rows from ``np.unique``, in
    ascending key order (NaN keys last, collapsed into one group)."""
    keys, values = keys[mask], values[mask].astype(np.float64)
    groups, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    totals = np.bincount(inverse, weights=values, minlength=len(groups))
    lo, hi = np.full(len(groups), np.inf), np.full(len(groups), -np.inf)
    with np.errstate(invalid="ignore"):
        np.minimum.at(lo, inverse, values)
        np.maximum.at(hi, inverse, values)
    return {
        "g": groups,
        "n": counts,
        "total": totals,
        "mean": totals / counts,
        "lo": lo,
        "hi": hi,
    }


def _by_key(result):
    order = np.argsort(result.column("g"), kind="stable")
    return {name: np.asarray(column)[order] for name, column in result.columns.items()}


def _assert_bit_identical(got, want):
    assert set(got) == set(want)
    assert np.array_equal(got["g"], want["g"], equal_nan=want["g"].dtype.kind == "f")
    for name in ("n", "total", "mean", "lo", "hi"):
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def _grouped_table(key_dtype, seed=5, name="t"):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 40, 3000).astype(key_dtype)
    values = rng.standard_normal(3000)
    values[rng.integers(0, 3000, 30)] = np.nan
    if np.dtype(key_dtype).kind == "f":
        keys[rng.integers(0, 3000, 50)] = np.nan
    return make_table(name, {"g": keys, "v": values})


class TestGroupByFactorized:
    @pytest.mark.parametrize("key_dtype", [np.float64, np.float32, np.int32, np.int64])
    @pytest.mark.parametrize(
        "where, keep",
        [
            ("", lambda g, v: np.ones(len(g), dtype=bool)),
            (" WHERE v > 0.5", lambda g, v: v > 0.5),
            # Empties every group at or above 20: they must be absent.
            (" WHERE g < 20", lambda g, v: g < 20),
            (" WHERE v > 100", lambda g, v: v > 100),
        ],
        ids=["all", "some-rows", "some-groups", "no-rows"],
    )
    def test_matches_the_unique_reference_bit_for_bit(
        self, device, key_dtype, where, keep
    ):
        table = _grouped_table(key_dtype)
        keys, values = table.column("g"), table.column("v")
        with np.errstate(invalid="ignore"):
            mask = keep(keys, values)
        result = QueryExecutor(table, device).sql(
            _ALL_AGGREGATES + where + " GROUP BY g"
        )
        want = _reference(keys, values, mask)
        _assert_bit_identical(_by_key(result), want)
        if where == " WHERE g < 20":
            assert len(want["g"]) == 20
        if where == " WHERE v > 100":
            assert len(result.column("g")) == 0

    def test_order_by_limit_keeps_the_reference_values(self, device):
        table = _grouped_table(np.int32)
        result = QueryExecutor(table, device).sql(
            _ALL_AGGREGATES + " GROUP BY g ORDER BY total DESC LIMIT 5"
        )
        want = _reference(table.column("g"), table.column("v"), np.ones(3000, bool))
        rows = np.searchsorted(want["g"], result.column("g"))
        for name in ("n", "total", "mean", "lo", "hi"):
            assert result.column(name).tobytes() == want[name][rows].tobytes()

    def test_register_replaces_the_factorized_groups(self, device):
        session = Session(device)
        session.register(make_table("t", {"g": np.array([1, 1, 2]), "v": np.ones(3)}))
        first = session.sql("SELECT g, COUNT() AS n FROM t GROUP BY g")
        assert sorted(first.column("g").tolist()) == [1, 2]
        session.register(
            make_table("t", {"g": np.array([7, 8, 8, 9]), "v": np.ones(4)})
        )
        second = _by_key(session.sql("SELECT g, COUNT() AS n FROM t GROUP BY g"))
        assert second["g"].tolist() == [7, 8, 9]
        assert second["n"].tolist() == [1, 2, 1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("aggregate", ["MIN", "MAX"])
    def test_nan_extremes_do_not_warn(self, device, aggregate):
        table = make_table(
            "t", {"g": np.array([0, 0, 1]), "v": np.array([1.0, np.nan, 2.0])}
        )
        result = QueryExecutor(table, device).sql(
            f"SELECT g, {aggregate}(v) AS x FROM t GROUP BY g"
        )
        got = _by_key(result)
        assert np.isnan(got["x"][0])
        assert got["x"][1] == 2.0

    def test_factorization_is_cached_per_table(self):
        table = _grouped_table(np.float64)
        keys, codes = table.factorized("g")
        assert table.factorized("g")[1] is codes
        want_keys, want_codes = np.unique(table.column("g"), return_inverse=True)
        assert np.array_equal(keys, want_keys, equal_nan=True)
        assert np.array_equal(codes, want_codes)
        assert "_factorized" not in repr(table)
