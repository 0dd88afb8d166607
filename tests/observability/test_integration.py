"""End-to-end invariants of the instrumented library.

The two load-bearing guarantees:

1. tracing must never change results — ``topk()`` under observation is
   byte-identical to ``topk()`` without it;
2. the trace must account for all simulated time — the ``kernel``-category
   spans (and Chrome-trace events) sum exactly to the result's
   ``simulated_ms()``, with no double counting through the planner, the
   engine, or the hybrid schedulers.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro.algorithms.registry import list_algorithms
from repro.core.topk import topk
from repro.data.distributions import uniform_floats


def _observed_topk(data, k, **kwargs):
    observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
    with observation.activate():
        result = topk(data, k, **kwargs)
    return observation, result


class TestByteIdentical:
    @pytest.mark.parametrize("algorithm", list_algorithms())
    def test_tracing_does_not_change_results(self, algorithm):
        data = uniform_floats(1 << 12, seed=7)
        plain = topk(data, 16, algorithm=algorithm)
        _, traced = _observed_topk(data, 16, algorithm=algorithm)
        assert plain.algorithm == traced.algorithm
        assert plain.values.tobytes() == traced.values.tobytes()
        assert plain.indices.tobytes() == traced.indices.tobytes()

    def test_tracing_does_not_change_the_trace(self):
        data = uniform_floats(1 << 12, seed=7)
        plain = topk(data, 16)
        _, traced = _observed_topk(data, 16)
        assert plain.simulated_ms() == pytest.approx(traced.simulated_ms())
        assert plain.trace.num_launches == traced.trace.num_launches


class TestKernelAccounting:
    @pytest.mark.parametrize("algorithm", list_algorithms())
    def test_kernel_spans_sum_to_simulated_ms(self, algorithm):
        data = uniform_floats(1 << 12, seed=3)
        observation, result = _observed_topk(data, 16, algorithm=algorithm)
        kernel_ms = observation.tracer.total_sim_ms("kernel")
        assert kernel_ms == pytest.approx(result.simulated_ms(), rel=1e-9)

    def test_chrome_trace_kernel_sum_matches(self):
        data = uniform_floats(1 << 12, seed=3)
        observation, result = _observed_topk(data, 16)
        document = obs.to_chrome_trace(observation.tracer, observation.metrics)
        assert obs.kernel_sim_total_ms(document) == pytest.approx(
            result.simulated_ms(), rel=1e-9
        )

    def test_metrics_total_matches(self):
        data = uniform_floats(1 << 12, seed=3)
        observation, result = _observed_topk(data, 16)
        total = observation.metrics.value("gpu.simulated_ms_total")
        assert total == pytest.approx(result.simulated_ms(), rel=1e-9)

    def test_span_hierarchy_query_to_kernel(self):
        data = uniform_floats(1 << 12, seed=3)
        observation, _ = _observed_topk(data, 16)
        (root,) = observation.tracer.roots
        assert root.name == "topk"
        categories = {span.category for span in observation.tracer.walk()}
        assert {"api", "planner", "algorithm", "kernel"} <= categories


class TestSchedulers:
    def test_cpu_gpu_group_accounts_once(self):
        from repro.cpu.spec import I7_6900
        from repro.gpu.device import get_device
        from repro.sharding import ShardedTopK

        data = uniform_floats(1 << 13, seed=5)
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            result = ShardedTopK(devices=[get_device(), I7_6900]).run(data, 32)
        assert observation.tracer.total_sim_ms("kernel") == pytest.approx(
            result.simulated_ms(), rel=1e-9
        )

    def test_chunked_accounts_once(self):
        from repro.core.chunked import chunked_topk

        data = uniform_floats(1 << 13, seed=5)
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            result = chunked_topk(data, 32, memory_budget_bytes=1 << 15)
        assert observation.tracer.total_sim_ms("kernel") == pytest.approx(
            result.simulated_ms(), rel=1e-9
        )

    def test_adaptive_nests_inner_algorithm(self):
        from repro.hybrid.adaptive import AdaptiveTopK

        data = uniform_floats(1 << 13, seed=5)
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            result = AdaptiveTopK().run(data, 32)
        assert observation.tracer.total_sim_ms("kernel") == pytest.approx(
            result.simulated_ms(), rel=1e-9
        )
        (root,) = observation.tracer.roots
        assert root.name == "adaptive"


class TestSession:
    def test_session_trace_accumulates_across_queries(self):
        from repro.engine.session import Session
        from repro.engine.twitter import generate_tweets

        session = Session(trace=True)
        session.register(generate_tweets(1 << 12, seed=1))
        first = session.sql(
            "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 10"
        )
        second = session.sql("SELECT id FROM tweets ORDER BY likes_count DESC LIMIT 10")
        roots = session.tracer.roots
        assert [root.name for root in roots] == ["query", "query"]
        expected = first.simulated_ms() + second.simulated_ms()
        assert session.tracer.total_sim_ms("kernel") == pytest.approx(
            expected, rel=1e-9
        )
        assert session.metrics.value("engine.queries", strategy="fused") == 2

    def test_untraced_session_has_no_observation(self):
        from repro.engine.session import Session

        session = Session()
        assert session.tracer is None
        assert session.metrics is None


class TestDisabledOverhead:
    def test_no_tracer_leaks_into_untraced_runs(self):
        data = uniform_floats(1 << 12, seed=9)
        _observed_topk(data, 16)  # populate and discard
        assert obs.current_tracer() is None
        result = topk(data, 16)
        assert result.values is not None


class TestCli:
    def test_trace_command_chrome(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main(["trace", "--n", "4096", "--k", "8", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "kernel spans sum to" in stdout
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        assert obs.kernel_sim_total_ms(document) > 0

    def test_trace_command_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "--n",
                "4096",
                "--k",
                "8",
                "--format",
                "jsonl",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        restored, _ = obs.load_jsonl(out.read_text())
        assert restored.num_spans > 0

    def test_trace_command_sql(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main(
            ["trace",
             "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 10",
             "--rows", "4096", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_profile_command(self, capsys):
        from repro.cli import main

        assert main(["profile", "--n", "4096", "--k", "8"]) == 0
        stdout = capsys.readouterr().out
        assert "topk" in stdout
        assert "gpu.kernel_launches" in stdout
        assert "simulated total" in stdout
