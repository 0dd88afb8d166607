"""Tests for query execution: correctness across strategies and traces."""

import numpy as np
import pytest

from repro.engine.executor import STRATEGIES, QueryExecutor
from repro.engine.session import Session
from repro.engine.table import make_table
from repro.engine.twitter import generate_tweets, time_threshold_for_selectivity
from repro.errors import UnsupportedQueryError

MODEL_ROWS = 250_000_000


@pytest.fixture(scope="module")
def tweets():
    return generate_tweets(1 << 14, seed=7)


@pytest.fixture
def session(tweets, device):
    session = Session(device)
    session.register(tweets)
    return session


class TestQuery1:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_time_filter_topk(self, session, tweets, strategy):
        threshold = time_threshold_for_selectivity(0.5)
        result = session.sql(
            f"SELECT id FROM tweets WHERE tweet_time < {threshold} "
            "ORDER BY retweet_count DESC LIMIT 50",
            strategy=strategy,
        )
        mask = tweets.column("tweet_time") < threshold
        expected = np.sort(tweets.column("retweet_count")[mask])[::-1][:50]
        got = np.sort(tweets.column("retweet_count")[result.column("id")])[::-1]
        assert np.array_equal(got, expected)

    def test_empty_selectivity(self, session):
        threshold = time_threshold_for_selectivity(0.0)
        result = session.sql(
            f"SELECT id FROM tweets WHERE tweet_time < {threshold} "
            "ORDER BY retweet_count DESC LIMIT 50"
        )
        assert result.num_result_rows == 0


class TestQuery2:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_ranking_function(self, session, tweets, strategy):
        result = session.sql(
            "SELECT id FROM tweets "
            "ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 64",
            strategy=strategy,
        )
        rank = (
            tweets.column("retweet_count") + 0.5 * tweets.column("likes_count")
        )
        expected = np.sort(rank)[::-1][:64]
        got = np.sort(rank[result.column("id")])[::-1]
        assert np.allclose(got, expected)


class TestQuery3:
    def test_language_filter(self, session, tweets):
        result = session.sql(
            "SELECT id FROM tweets WHERE lang = 'en' OR lang = 'es' "
            "ORDER BY retweet_count DESC LIMIT 32"
        )
        langs = np.array(
            tweets.decode_strings("lang", tweets.column("lang"))
        )
        mask = np.isin(langs, ["en", "es"])
        expected = np.sort(tweets.column("retweet_count")[mask])[::-1][:32]
        got = np.sort(tweets.column("retweet_count")[result.column("id")])[::-1]
        assert np.array_equal(got, expected)

    def test_selectivity_is_about_80_percent(self, tweets):
        langs = np.array(tweets.decode_strings("lang", tweets.column("lang")))
        assert np.isin(langs, ["en", "es"]).mean() == pytest.approx(0.8, abs=0.03)


class TestQuery4:
    @pytest.mark.parametrize("strategy", ["sort", "topk"])
    def test_group_by_count(self, session, tweets, strategy):
        result = session.sql(
            "SELECT uid, COUNT() AS num_tweets FROM tweets GROUP BY uid "
            "ORDER BY num_tweets DESC LIMIT 50",
            strategy=strategy,
        )
        _, counts = np.unique(tweets.column("uid"), return_counts=True)
        expected = np.sort(counts)[::-1][:50]
        assert np.array_equal(np.sort(result.column("num_tweets"))[::-1], expected)

    def test_group_by_requires_count(self, session):
        with pytest.raises(UnsupportedQueryError):
            session.sql("SELECT uid FROM tweets GROUP BY uid LIMIT 5")


class TestStrategyCosts:
    def test_fusion_ordering(self, session):
        """Figure 16: fused < separate top-k < sort, at high selectivity."""
        threshold = time_threshold_for_selectivity(1.0)
        sql = (
            f"SELECT id FROM tweets WHERE tweet_time < {threshold} "
            "ORDER BY retweet_count DESC LIMIT 50"
        )
        times = {
            strategy: session.sql(
                sql, strategy=strategy, model_rows=MODEL_ROWS
            ).simulated_ms()
            for strategy in STRATEGIES
        }
        assert times["fused"] < times["topk"] < times["sort"]

    def test_sort_cost_grows_with_selectivity(self, session):
        low = session.sql(
            f"SELECT id FROM tweets WHERE tweet_time < "
            f"{time_threshold_for_selectivity(0.1)} "
            "ORDER BY retweet_count DESC LIMIT 50",
            strategy="sort",
            model_rows=MODEL_ROWS,
        ).simulated_ms()
        high = session.sql(
            f"SELECT id FROM tweets WHERE tweet_time < "
            f"{time_threshold_for_selectivity(0.9)} "
            "ORDER BY retweet_count DESC LIMIT 50",
            strategy="sort",
            model_rows=MODEL_ROWS,
        ).simulated_ms()
        assert high > 2 * low

    def test_fused_cost_nearly_selectivity_independent(self, session):
        """The fused kernel always scans the base columns once."""
        times = []
        for selectivity in (0.1, 0.9):
            threshold = time_threshold_for_selectivity(selectivity)
            times.append(
                session.sql(
                    f"SELECT id FROM tweets WHERE tweet_time < {threshold} "
                    "ORDER BY retweet_count DESC LIMIT 50",
                    strategy="fused",
                    model_rows=MODEL_ROWS,
                ).simulated_ms()
            )
        assert times[1] < times[0] * 1.5

    def test_group_by_topk_beats_sort(self, session):
        sql = (
            "SELECT uid, COUNT() AS num_tweets FROM tweets GROUP BY uid "
            "ORDER BY num_tweets DESC LIMIT 50"
        )
        sort_time = session.sql(
            sql, strategy="sort", model_rows=MODEL_ROWS
        ).simulated_ms()
        topk_time = session.sql(
            sql, strategy="topk", model_rows=MODEL_ROWS
        ).simulated_ms()
        assert topk_time < sort_time


class TestPlainScans:
    def test_filter_only_query(self, device):
        table = make_table(
            "small", {"a": np.arange(10, dtype=np.int32), "b": np.arange(10) * 2}
        )
        executor = QueryExecutor(table, device)
        result = executor.sql("SELECT a, b FROM small WHERE a >= 7")
        assert result.column("a").tolist() == [7, 8, 9]
        assert result.column("b").tolist() == [14, 16, 18]

    def test_limit_without_order(self, device):
        table = make_table("small", {"a": np.arange(10, dtype=np.int32)})
        executor = QueryExecutor(table, device)
        result = executor.sql("SELECT a FROM small LIMIT 3")
        assert result.column("a").tolist() == [0, 1, 2]


class TestErrors:
    def test_unknown_strategy(self, session):
        with pytest.raises(UnsupportedQueryError):
            session.sql("SELECT id FROM tweets LIMIT 1", strategy="magic")

    def test_unknown_table(self, session):
        with pytest.raises(UnsupportedQueryError):
            session.sql("SELECT id FROM toots LIMIT 1")

    def test_executor_rejects_foreign_table(self, tweets, device):
        executor = QueryExecutor(tweets, device)
        with pytest.raises(UnsupportedQueryError):
            executor.sql("SELECT a FROM other LIMIT 1")

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT v FROM w ORDER BY v {}",
            "SELECT v, COUNT() AS n FROM w GROUP BY v ORDER BY n {}",
        ],
        ids=["scan", "group-by"],
    )
    def test_order_by_without_limit_is_rejected(self, sql, direction):
        # Only top-k is answered; a full sort used to come back unsorted.
        session = Session()
        session.register(make_table("w", {"v": np.array([3, 1, 2], np.int32)}))
        with pytest.raises(UnsupportedQueryError, match="LIMIT"):
            session.sql(sql.format(direction))
