"""Planner policy: recall_target = 1.0 is bit-exact and approx-free;
lower targets route to the approximate operator only on a predicted win."""

import numpy as np
import pytest

from repro.core.planner import TopKPlanner
from repro.core.topk import topk
from repro.costmodel import ApproxTopKModel, choose_config
from repro.engine.session import Session
from repro.engine.twitter import generate_tweets
from repro.errors import InvalidParameterError
from repro.gpu.device import get_device, list_devices


class TestExactTarget:
    def test_default_plan_never_mentions_approx(self, device):
        choice = TopKPlanner(device).choose(1 << 20, 256, np.dtype(np.float32))
        assert choice.algorithm != "approx-bucket"
        assert choice.approx_config is None
        assert choice.expected_recall == 1.0
        assert all(name != "approx-bucket" for name, _ in choice.candidates)

    def test_explicit_target_one_matches_default_bit_for_bit(self, rng, device):
        data = rng.random(1 << 16).astype(np.float32)
        plain = topk(data, 64, device=device)
        pinned = topk(data, 64, device=device, recall_target=1.0)
        assert plain.algorithm == pinned.algorithm
        assert np.array_equal(plain.values, pinned.values)
        assert np.array_equal(plain.indices, pinned.indices)

    def test_choose_config_refuses_target_one(self, device):
        assert choose_config(1 << 20, 256, 1.0, np.dtype(np.float32), device) is None


class TestRelaxedTarget:
    def test_planner_picks_approx_when_it_wins(self, device):
        choice = TopKPlanner(device).choose(
            1 << 20, 256, np.dtype(np.float32), recall_target=0.99
        )
        assert choice.algorithm == "approx-bucket"
        assert choice.approx_config is not None
        assert choice.expected_recall >= 0.99
        # The approximate plan leads the ranking only because it is
        # predicted faster than the best exact plan.
        exact_best = min(
            seconds for name, seconds in choice.candidates if name != "approx-bucket"
        )
        assert choice.predicted_seconds < exact_best

    def test_recall_target_is_honored_functionally(self, rng, device):
        from repro.algorithms.base import reference_topk
        from repro.approx import measured_recall

        data = rng.random(1 << 18).astype(np.float32)
        result = topk(data, 256, device=device, recall_target=0.99)
        assert result.algorithm == "approx-bucket"
        reference, _ = reference_topk(data, 256)
        assert measured_recall(result.values, reference) >= 0.99

    def test_chosen_config_never_spills_registers(self, device):
        plan = choose_config(1 << 22, 512, 0.95, np.dtype(np.float32), device)
        assert plan is not None
        config, seconds, recall = plan
        assert recall >= 0.95
        assert seconds > 0.0
        # The search discards configurations over the 64-register budget.
        itemsize_words = max(1, np.dtype(np.float32).itemsize // 4)
        assert config.khat(512) * itemsize_words + 24 <= 64


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_out_of_range_target_raises(self, device, bad):
        with pytest.raises(InvalidParameterError):
            TopKPlanner(device).choose(
                1 << 16, 64, np.dtype(np.float32), recall_target=bad
            )

    @pytest.mark.parametrize("bad", [0.0, 2.0])
    def test_topk_rejects_bad_target(self, rng, device, bad):
        data = rng.random(1024).astype(np.float32)
        with pytest.raises(InvalidParameterError):
            topk(data, 8, device=device, recall_target=bad)


class TestApproxModel:
    def test_model_tracks_the_operator_within_2x(self, rng, device):
        from repro.approx import ApproxBucketTopK
        from repro.gpu.timing import trace_time

        config_model = ApproxTopKModel(device)
        data = rng.random(1 << 16).astype(np.float32)
        model_n, k = 1 << 22, 256
        predicted_ms = config_model.predict_seconds(model_n, k) * 1e3
        result = ApproxBucketTopK(
            device, config=config_model.config
        ).run(data, k, model_n=model_n)
        measured_ms = trace_time(result.trace, device).total_ms
        # Predictive models use peak bandwidths (see docs/cost_model.md):
        # systematic underestimation is expected, gross divergence is not.
        assert predicted_ms <= measured_ms
        assert measured_ms / predicted_ms < 2.0


class TestConfigSearchMemo:
    @pytest.mark.parametrize("device_name", list_devices())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_memoized_search_equals_the_search(self, device_name, dtype):
        device = get_device(device_name)
        for n in (1 << 12, 1 << 17, 1 << 24):
            for k in (8, 50, 256):
                for recall in (0.5, 0.9, 0.99, 1.0):
                    args = (n, k, recall, np.dtype(dtype), device)
                    # The first call may search, the second is a hit.
                    assert choose_config(*args) == choose_config.__wrapped__(*args)
                    assert choose_config(*args) == choose_config.__wrapped__(*args)

    def test_repeated_approx_query_searches_once(self, device):
        session = Session(device)
        session.register(generate_tweets(1 << 12, seed=4))
        query = (
            "SELECT id FROM tweets ORDER BY likes_count DESC LIMIT 40 "
            "APPROX_TOPK(0.9)"
        )
        choose_config.cache_clear()
        first = session.sql(query, model_rows=3_000_000)
        second = session.sql(query, model_rows=3_000_000)
        assert choose_config.cache_info().misses == 1
        assert choose_config.cache_info().hits >= 1
        assert first.columns["id"].tobytes() == second.columns["id"].tobytes()
        assert first.simulated_ms() == second.simulated_ms()
