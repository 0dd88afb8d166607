"""Exporter round-trips: JSON-lines and the Chrome trace-event format."""

import json

import pytest

from repro.observability import (
    MetricsRegistry,
    Tracer,
    kernel_sim_total_ms,
    load_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("query", category="engine", table="tweets") as query:
        with tracer.span("plan", category="planner", n=1024):
            pass
        with tracer.span("algorithm:bitonic", category="algorithm") as algo:
            with tracer.span("kernel:sort", category="kernel") as k1:
                k1.add_simulated_ms(1.5)
            with tracer.span("kernel:merge", category="kernel") as k2:
                k2.add_simulated_ms(0.5)
            algo.set(simulated_ms=2.0)
        query.add_simulated_ms(0.25)
    return tracer


class TestJsonl:
    def test_round_trip_preserves_structure(self):
        tracer = _sample_tracer()
        text = to_jsonl(tracer)
        restored, metrics = load_jsonl(text)
        assert [s.name for s in restored.walk()] == [s.name for s in tracer.walk()]
        assert [s.category for s in restored.walk()] == [
            s.category for s in tracer.walk()
        ]
        assert metrics == []

    def test_round_trip_preserves_times_and_attributes(self):
        tracer = _sample_tracer()
        restored, _ = load_jsonl(to_jsonl(tracer))
        for original, copy in zip(tracer.walk(), restored.walk()):
            assert copy.sim_ms == pytest.approx(original.sim_ms)
            assert copy.start_wall == pytest.approx(original.start_wall)
            assert copy.end_wall == pytest.approx(original.end_wall)
            assert copy.attributes == original.attributes
        assert restored.total_sim_ms("kernel") == pytest.approx(2.0)

    def test_metrics_records_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("gpu.kernel_launches", kernel="sort").inc(3)
        registry.histogram("gpu.kernel_sim_ms").observe(1.5)
        _, metric_records = load_jsonl(to_jsonl(_sample_tracer(), registry))
        by_name = {record["name"]: record for record in metric_records}
        assert by_name["gpu.kernel_launches"]["value"] == 3
        assert by_name["gpu.kernel_sim_ms"]["count"] == 1

    def test_write_jsonl_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, _sample_tracer())
        lines = path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "repro-trace"
        assert all(json.loads(line) for line in lines)


class TestChromeTrace:
    def test_document_shape(self):
        document = to_chrome_trace(_sample_tracer())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}
        names = {event["args"]["name"] for event in events if event["ph"] == "M"}
        assert len(names) == 2  # wall-clock + simulated processes

    def test_every_span_appears_on_the_wall_track(self):
        tracer = _sample_tracer()
        document = to_chrome_trace(tracer)
        wall_names = [
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] == "X" and event["pid"] == 1
        ]
        assert sorted(wall_names) == sorted(s.name for s in tracer.walk())

    def test_kernel_sim_total(self):
        document = to_chrome_trace(_sample_tracer())
        assert kernel_sim_total_ms(document) == pytest.approx(2.0)

    def test_simulated_children_nest_inside_parents(self):
        document = to_chrome_trace(_sample_tracer())
        sim = {
            event["name"]: event
            for event in document["traceEvents"]
            if event["ph"] == "X" and event["pid"] == 2
        }
        algo = sim["algorithm:bitonic"]
        for kernel in ("kernel:sort", "kernel:merge"):
            assert sim[kernel]["ts"] >= algo["ts"]
            assert (
                sim[kernel]["ts"] + sim[kernel]["dur"]
                <= algo["ts"] + algo["dur"] + 1e-6
            )

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        registry = MetricsRegistry()
        registry.counter("x").inc()
        write_chrome_trace(path, _sample_tracer(), registry)
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert document["otherData"]["metrics"]
