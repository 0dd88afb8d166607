"""The typed plan IR: fingerprints, traversal, rendering, binding."""

import numpy as np
import pytest

from repro.algorithms.registry import create_for_node
from repro.approx.config import ApproxConfig
from repro.core.planner import TopKPlanner
from repro.errors import InvalidParameterError
from repro.plan import (
    CPU_FALLBACK,
    ApproxTopK,
    Batch,
    Fallback,
    Filter,
    PlanNode,
    Scan,
    TopK,
    TopKPlan,
    bind_plan,
    build_fallback,
    network_k,
    request_fingerprint,
)


def scan_topk(algorithm="bitonic", k=8, n=1024, seconds=1e-3):
    return TopK(
        child=Scan(source="vector", rows=n),
        k=k,
        n=n,
        algorithm=algorithm,
        predicted_seconds=seconds,
    )


class TestFingerprint:
    def test_stable_across_identical_trees(self):
        assert scan_topk().fingerprint() == scan_topk().fingerprint()

    def test_identity_fields_change_it(self):
        base = scan_topk()
        assert base.fingerprint() != scan_topk(k=9).fingerprint()
        assert base.fingerprint() != scan_topk(algorithm="sort").fingerprint()
        assert base.fingerprint() != scan_topk(n=2048).fingerprint()

    def test_cost_annotations_do_not(self):
        assert scan_topk(seconds=1e-3).fingerprint() == scan_topk(
            seconds=9.0
        ).fingerprint()

    def test_children_are_part_of_identity(self):
        plain = scan_topk()
        filtered = TopK(
            child=Filter(child=Scan(rows=1024), predicate="(lang < 3)"),
            k=8,
            n=1024,
        )
        assert plain.fingerprint() != filtered.fingerprint()

    def test_expected_recall_is_an_annotation(self):
        a = ApproxTopK(k=8, n=1024, buckets=16, expected_recall=0.99)
        b = ApproxTopK(k=8, n=1024, buckets=16, expected_recall=0.42)
        c = ApproxTopK(k=8, n=1024, buckets=32, expected_recall=0.99)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_computed_once_and_invisible_to_identity(self):
        import dataclasses

        plan, fresh = scan_topk(), scan_topk()
        before = (plan.to_dict(), hash(plan))
        digest = plan.fingerprint()
        assert plan.fingerprint() is digest
        assert plan == fresh and hash(plan) == before[1] == hash(fresh)
        assert plan.to_dict() == before[0] == fresh.to_dict()
        assert "_fingerprint" not in repr(plan)
        changed = dataclasses.replace(plan, k=9)
        assert changed.fingerprint() == scan_topk(k=9).fingerprint() != digest

    def test_request_fingerprint_covers_every_input(self):
        base = request_fingerprint(1024, 8, "float32", "uniform-float", "gpu")
        assert base == request_fingerprint(1024, 8, "float32", "uniform-float", "gpu")
        for other in [
            request_fingerprint(2048, 8, "float32", "uniform-float", "gpu"),
            request_fingerprint(1024, 9, "float32", "uniform-float", "gpu"),
            request_fingerprint(1024, 8, "uint32", "uniform-float", "gpu"),
            request_fingerprint(1024, 8, "float32", "uniform-uint", "gpu"),
            request_fingerprint(1024, 8, "float32", "uniform-float", "cpu"),
            request_fingerprint(
                1024, 8, "float32", "uniform-float", "gpu", recall_target=0.9
            ),
        ]:
            assert other != base


class TestTraversal:
    def test_walk_is_preorder(self):
        tree = build_fallback(
            [("bitonic", 1e-3), ("sort", 2e-3)], n=1024, k=8, terminal_cpu=True
        )
        kinds = [node.kind for node in tree.walk()]
        assert kinds == ["Fallback", "TopK", "Scan", "TopK", "Scan", "TopK", "Scan"]

    def test_find(self):
        tree = build_fallback([("approx-bucket", 1e-3)], n=1024, k=8)
        assert isinstance(tree.find(ApproxTopK), ApproxTopK)
        assert tree.find(Batch) is None

    def test_children_collects_tuples(self):
        tree = Fallback(alternatives=(scan_topk(), scan_topk(k=4)))
        assert len(tree.children) == 2


class TestFallback:
    def test_chain_names_in_order(self):
        tree = build_fallback(
            [("bitonic", 1e-3), ("radix-select", 2e-3)],
            n=1024,
            k=8,
            terminal_cpu=True,
        )
        assert tree.chain() == ["bitonic", "radix-select", CPU_FALLBACK]

    def test_terminal_cpu_not_duplicated(self):
        tree = build_fallback(
            [("bitonic", 1e-3), (CPU_FALLBACK, None)],
            n=1024,
            k=8,
            terminal_cpu=True,
        )
        assert tree.chain() == ["bitonic", CPU_FALLBACK]

    def test_approx_candidate_carries_its_config(self):
        config = ApproxConfig(buckets=16, oversample=2, delegate_group=4)
        tree = build_fallback(
            [("approx-bucket", 1e-3), ("bitonic", 2e-3)],
            n=1 << 20,
            k=64,
            recall_target=0.9,
            approx_config=config,
            expected_recall=0.95,
        )
        node = tree.alternatives[0]
        assert isinstance(node, ApproxTopK)
        assert node.config() == config
        assert node.expected_recall == 0.95
        # The exact alternative is a plain TopK, untouched by the config.
        assert isinstance(tree.alternatives[1], TopK)


class TestRendering:
    def test_render_shows_every_node_and_costs(self):
        tree = build_fallback([("bitonic", 1.5e-3)], n=1024, k=8, terminal_cpu=True)
        text = tree.render()
        assert "Fallback" in text
        assert "algorithm=bitonic" in text
        assert "algorithm=cpu-heap" in text
        assert "[1.50 ms]" in text
        assert "└─" in text and "├─" in text

    def test_to_dict_round_trips_the_identity(self):
        tree = build_fallback([("bitonic", 1e-3)], n=1024, k=8)
        payload = tree.to_dict()
        assert payload["kind"] == "Fallback"
        assert payload["fingerprint"] == tree.fingerprint()
        child = payload["children"][0]
        assert child["kind"] == "TopK"
        assert child["algorithm"] == "bitonic"
        assert child["predicted_seconds"] == 1e-3
        assert child["children"][0]["kind"] == "Scan"


class TestTopKPlan:
    def test_legacy_constructor_synthesizes_the_tree(self):
        plan = TopKPlan(
            algorithm="bitonic",
            predicted_seconds=1e-3,
            candidates=(("bitonic", 1e-3), ("sort", 2e-3)),
        )
        assert isinstance(plan.root, Fallback)
        assert plan.root.chain() == ["bitonic", "sort"]
        assert plan.winner().algorithm == "bitonic"
        assert plan.fallback_chain() == ["bitonic", "sort"]

    def test_batch_node_uses_padded_width_not_literal_k(self):
        plan = TopKPlan(
            algorithm="bitonic",
            predicted_seconds=1e-3,
            candidates=(("bitonic", 1e-3),),
            n=512,
            k=9,
        )
        # The node keys on the tile: neither k nor the exact n is in it, and
        # float32, int32 and uint32 rows share the packed key layout.
        tile = plan.batch_node(n=512, dtype="float32")
        assert (tile.width, tile.layout) == (512, "packed")
        for n, dtype in ((300, "float32"), (257, "int32"), (512, "uint32")):
            assert plan.batch_node(n=n, dtype=dtype).fingerprint() == tile.fingerprint()
        assert plan.batch_node(n=513).fingerprint() != tile.fingerprint()
        wide = plan.batch_node(n=512, dtype="float64")
        assert wide.layout == "codes+column"
        assert wide.fingerprint() != tile.fingerprint()

    def test_planner_plan_fingerprints_only_on_identity(self, device):
        planner = TopKPlanner(device)
        first = planner.choose(1 << 16, 32, np.dtype(np.float32))
        second = planner.choose(1 << 16, 32, np.dtype(np.float32))
        assert first.fingerprint() == second.fingerprint()
        other = planner.choose(1 << 16, 33, np.dtype(np.float32))
        assert first.fingerprint() != other.fingerprint()


class TestBinding:
    def test_bound_plan_runs_the_winner(self, device, rng):
        planner = TopKPlanner(device)
        plan = planner.choose(4096, 16, np.dtype(np.float32))
        bound = bind_plan(plan, device)
        data = rng.random(4096).astype(np.float32)
        result = bound.run(data)
        reference = np.sort(data)[::-1][:16]
        np.testing.assert_array_equal(result.values, reference)
        assert bound.fingerprint() == plan.fingerprint()

    def test_create_for_node_dispatches_on_node_type(self, device):
        exact = create_for_node(scan_topk(), device)
        assert type(exact).__name__ == "BitonicTopK"
        cpu = create_for_node(scan_topk(algorithm=CPU_FALLBACK), device)
        assert type(cpu).__name__ == "HandPqTopK"
        approx = create_for_node(ApproxTopK(k=8, n=1024, buckets=16), device)
        assert type(approx).__name__ == "ApproxBucketTopK"
        assert approx.config.buckets == 16

    def test_create_for_node_rejects_non_operator_nodes(self, device):
        with pytest.raises(InvalidParameterError):
            create_for_node(Scan(rows=16), device)


class TestNetworkK:
    def test_padded_width(self):
        assert [network_k(k) for k in (1, 2, 3, 8, 9, 1024)] == [1, 2, 4, 8, 16, 1024]
