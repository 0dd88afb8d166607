"""Beyond the paper's evaluated scope: out-of-core, hybrid, adaptive, batched.

Four extensions the paper sketches (Section 4.3 discussion and the
conclusion's future work) or motivates (the TensorFlow/ArrayFire feature
requests in the introduction):

1. out-of-core top-k streaming a 32 GiB input through the 12 GiB card with
   transfer/compute overlap;
2. a hybrid CPU+GPU split: a sharded device group with a CPU entry,
   its rows weighted by each device's modeled throughput;
3. adaptive algorithm selection that sniffs a sample and dodges every
   adversarial distribution;
4. batched per-row top-k with a single fused launch pipeline.

Run with::

    python examples/scaling_out.py
"""

import numpy as np

from repro import AdaptiveTopK, batched_topk, chunked_topk
from repro import observability as obs
from repro.core.chunked import ChunkedTopK
from repro.cpu.spec import I7_6900
from repro.data.distributions import bucket_killer, increasing, uniform_floats
from repro.gpu.device import get_device
from repro.sharding import ShardedTopK

FUNCTIONAL_N = 1 << 18


def out_of_core() -> None:
    device = get_device()
    model_n = 1 << 33  # 32 GiB of floats on a 12 GiB card
    print("1) out-of-core: 2^33 floats through the 12 GiB Titan X")
    plan = ChunkedTopK(device).plan(model_n, 64, np.dtype(np.float32))
    print(f"   chunks: {plan.num_chunks}, "
          f"transfer/chunk: {plan.transfer_seconds_per_chunk * 1e3:.1f} ms, "
          f"compute/chunk: {plan.compute_seconds_per_chunk * 1e3:.1f} ms")
    data = uniform_floats(FUNCTIONAL_N)
    for overlap in (False, True):
        result = chunked_topk(data, 64, overlap=overlap, model_n=model_n)
        label = "overlapped" if overlap else "serial    "
        print(f"   {label}: {result.simulated_ms():9.1f} ms "
              f"(efficiency {result.trace.notes['overlap_efficiency']:.2f})")
    bound = model_n * 4 / device.pcie_bandwidth * 1e3
    print(f"   PCIe lower bound: {bound:.1f} ms\n")


def hybrid() -> None:
    print("2) hybrid CPU+GPU split (top-64 of 2^29 floats)")
    group = [get_device(), I7_6900]  # devices[0], the GPU, coordinates
    data = uniform_floats(FUNCTIONAL_N)
    observation = obs.Observation(obs.Tracer(), None)
    with observation.activate():
        result = ShardedTopK(devices=group, inner="bitonic").run(
            data, 64, model_n=1 << 29
        )
    for device, span in zip(group, observation.tracer.spans("shard")):
        rows = span.attributes["rows"]
        print(f"   {device.name:>16}: {rows / len(data):6.1%} of the rows, "
              f"{span.attributes['simulated_ms']:.1f} ms")
    print(f"   group simulated total: {result.simulated_ms():.1f} ms\n")


def adaptive() -> None:
    print("3) adaptive selection (k = 1024, model n = 2^29)")
    selector = AdaptiveTopK()
    for label, generator in (
        ("uniform floats", uniform_floats),
        ("sorted ascending", increasing),
        ("bucket killer", bucket_killer),
    ):
        data = generator(FUNCTIONAL_N, seed=1)
        choice = selector.choose(data, 1024, model_n=1 << 29)
        print(f"   {label:>18}: {choice.algorithm:>13} "
              f"({choice.predicted_ms:.1f} ms predicted)")
    print()


def batched() -> None:
    print("4) batched top-16 over 64 rows of 4096 floats")
    rng = np.random.default_rng(0)
    matrix = rng.random((64, 4096)).astype(np.float32)
    result = batched_topk(matrix, 16, model_rows=4096)
    print(f"   one fused pipeline, {result.trace.num_launches} launches, "
          f"{result.simulated_ms():.2f} ms for a 4096-row batch")
    print(f"   row 0 top-3: {np.array2string(result.values[0][:3], precision=5)}")


def main() -> None:
    out_of_core()
    hybrid()
    adaptive()
    batched()


if __name__ == "__main__":
    main()
