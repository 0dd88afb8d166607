"""Ablation: the paper's future-work directions — hybrid and adaptive top-k.

* **Hybrid CPU+GPU** (conclusion: "hybrid solutions could either involve
  multiple devices"): a sharded device group with a CPU shard, its rows
  weighted by each device's modeled throughput, should finish before
  either device alone.
* **Adaptive selection** (conclusion: "as well as hybrids of the presented
  algorithms"): sniffing a sample protects against the adversarial cases
  of Section 6.4 — the static uniform-profile planner walks radix select
  into the bucket killer; the adaptive one does not.
"""

from repro.algorithms.registry import create
from repro.bench.report import Figure, record_figure
from repro.bitonic.topk import BitonicTopK
from repro.cpu.pq_topk import HandPqTopK
from repro.core.planner import TopKPlanner
from repro.cpu.spec import I7_6900
from repro.data.distributions import bucket_killer, increasing, uniform_floats
from repro.gpu.device import get_device
from repro.hybrid.adaptive import AdaptiveTopK
from repro.sharding import ShardedTopK

MODEL_N = 1 << 29
K = 64


def test_hybrid_and_adaptive(benchmark, functional_n):
    device = get_device()
    figure = Figure(
        "ablX-hybrid",
        "Hybrid CPU+GPU and adaptive selection (top-64, 2^29 floats)",
        "configuration",
        "simulated ms",
        paper_expectation=(
            "Future work of the conclusion: a balanced split beats either "
            "device; adaptive selection avoids every adversarial trap."
        ),
    )
    data = uniform_floats(functional_n)
    devices = figure.add_series("uniform")
    gpu = BitonicTopK(device).run(data, K, model_n=MODEL_N)
    cpu = HandPqTopK(device).run(data, K, model_n=MODEL_N)
    group = ShardedTopK(devices=[device, I7_6900], inner="bitonic")
    hybrid = group.run(data, K, model_n=MODEL_N)
    devices.add("gpu-only", gpu.simulated_ms(device))
    devices.add("cpu-only", cpu.simulated_ms(device))
    devices.add("hybrid", hybrid.simulated_ms(device))

    adaptive_series = figure.add_series("static-vs-adaptive")
    planner = TopKPlanner(device)
    selector = AdaptiveTopK(device)
    for label, generator in (
        ("uniform", uniform_floats),
        ("increasing", increasing),
        ("bucket-killer", bucket_killer),
    ):
        workload = generator(functional_n, seed=1)
        static_name = planner.choose(MODEL_N, K, workload.dtype).algorithm
        static = create(static_name, device).run(workload, K, model_n=MODEL_N)
        adaptive = selector.run(workload, K, model_n=MODEL_N)
        adaptive_series.add(f"{label}-static", static.simulated_ms(device))
        adaptive_series.add(f"{label}-adaptive", adaptive.simulated_ms(device))
    record_figure(benchmark, figure)

    # Hybrid beats both single devices.
    points = devices.points
    assert points["hybrid"] < points["gpu-only"]
    assert points["hybrid"] < points["cpu-only"]
    # Adaptive never loses badly on any distribution; on at least one
    # adversarial workload it strictly beats the static choice.
    adaptive_points = adaptive_series.points
    for label in ("uniform", "increasing", "bucket-killer"):
        assert (
            adaptive_points[f"{label}-adaptive"]
            <= adaptive_points[f"{label}-static"] * 1.3
        )

    benchmark(lambda: group.run(data, K))
