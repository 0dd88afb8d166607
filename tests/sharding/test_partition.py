"""Partitioning rule and merge semantics: tiling, balance, validation,
source-range round trips, sharded plan shape, and tie-breaking."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.plan.nodes import Merge, Scan, TopK
from repro.sharding import (
    build_sharded_plan,
    merge_topk,
    parse_shard_range,
    partition_ranges,
    shard_source,
)


class TestPartitionRanges:
    @pytest.mark.parametrize("n", [1, 7, 64, 1000, 1 << 16])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_ranges_tile_the_input_exactly(self, n, shards):
        if shards > n:
            pytest.skip("shards > n is a validation case")
        ranges = partition_ranges(n, shards)
        assert len(ranges) == shards
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_ranges_are_balanced_to_within_one_row(self):
        sizes = [stop - start for start, stop in partition_ranges(1000, 7)]
        assert max(sizes) - min(sizes) <= 1
        assert all(size >= 1 for size in sizes)

    def test_extra_rows_go_to_the_first_ranges(self):
        sizes = [stop - start for start, stop in partition_ranges(10, 3)]
        assert sizes == [4, 3, 3]

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "2", None])
    def test_invalid_shard_counts_raise_typed_errors(self, bad):
        with pytest.raises(InvalidParameterError):
            partition_ranges(100, bad)

    def test_more_shards_than_rows_raises(self):
        with pytest.raises(InvalidParameterError, match="at least one row"):
            partition_ranges(3, 4)

    def test_empty_input_raises(self):
        with pytest.raises(InvalidParameterError, match="cannot partition"):
            partition_ranges(0, 1)


class TestWeightedRanges:
    @pytest.mark.parametrize("n", [7, 1000, 1 << 16])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_equal_weights_give_the_balanced_ranges(self, n, shards):
        assert partition_ranges(n, shards, [2.5] * shards) == partition_ranges(
            n, shards
        )

    @pytest.mark.parametrize("n", [3, 10, 1000, 1 << 16])
    def test_weighted_ranges_tile_and_follow_the_weights(self, n):
        weights = [4.0, 1.0, 0.001]
        ranges = partition_ranges(n, 3, weights)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in ranges]
        assert all(size >= 1 for size in sizes)
        assert sizes[0] >= sizes[1] >= sizes[2]
        if n >= 1000:
            assert sizes[0] / sizes[1] == pytest.approx(4.0, rel=0.01)

    @pytest.mark.parametrize(
        "weights", [[1.0], [1.0, 0.0], [1.0, -2.0], [1.0, float("nan")]]
    )
    def test_invalid_weights_raise(self, weights):
        with pytest.raises(InvalidParameterError, match="shard weights"):
            partition_ranges(100, 2, weights)


class TestShardSource:
    def test_round_trip(self):
        source = shard_source("tweets", 128, 256)
        assert source == "tweets[128:256)"
        assert parse_shard_range(source) == (128, 256)

    def test_unpartitioned_source_parses_to_none(self):
        assert parse_shard_range("tweets") is None
        assert parse_shard_range("vector") is None


class TestBuildShardedPlan:
    def test_tree_shape_and_ranges(self):
        merge = build_sharded_plan(1000, 50, shards=4, source="tweets")
        assert isinstance(merge, Merge)
        assert merge.algorithm == "sharded"
        assert merge.k == 50
        assert len(merge.inputs) == 4
        starts = []
        for node in merge.inputs:
            assert isinstance(node, TopK)
            assert isinstance(node.child, Scan)
            start, stop = parse_shard_range(node.child.source)
            assert stop - start == node.n == node.child.rows
            starts.append(start)
        assert starts == sorted(starts)
        assert merge.shard_ranges() == [
            f"[{start}:{stop})" for start, stop in partition_ranges(1000, 4)
        ]

    def test_label_renders_shard_ranges(self):
        merge = build_sharded_plan(100, 10, shards=2)
        label = merge.label()
        assert "shards=2" in label
        assert "[0:50)" in label and "[50:100)" in label

    def test_local_k_is_clamped_to_shard_rows(self):
        merge = build_sharded_plan(8, 6, shards=4)
        assert [node.k for node in merge.inputs] == [2, 2, 2, 2]


class TestMergeTopK:
    def test_ties_resolve_to_the_lower_global_row(self):
        values = np.array([5.0, 5.0, 5.0, 1.0], dtype=np.float32)
        indices = np.array([900, 3, 40, 1], dtype=np.int64)
        merged_values, merged_rows = merge_topk(values, indices, 3)
        assert merged_rows.tolist() == [3, 40, 900]
        assert merged_values.tolist() == [5.0, 5.0, 5.0]

    def test_nan_orders_last(self):
        values = np.array([np.nan, 2.0, np.nan, 3.0], dtype=np.float32)
        indices = np.array([0, 1, 2, 3], dtype=np.int64)
        merged_values, merged_rows = merge_topk(values, indices, 3)
        assert merged_rows.tolist() == [3, 1, 0]
        assert np.isnan(merged_values[-1])

    def test_uint64_does_not_wrap(self):
        top = np.iinfo(np.uint64).max
        values = np.array([0, top, 1], dtype=np.uint64)
        indices = np.array([0, 1, 2], dtype=np.int64)
        merged_values, _ = merge_topk(values, indices, 2)
        assert merged_values.tolist() == [top, 1]
