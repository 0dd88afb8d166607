"""Short self-test of the benchmark (under a minute):

    python3 perfbench/smoke.py

Runs every workload for a few operations, untraced and traced, and asserts
that the same seed builds byte-identical inputs and another seed different
ones; that every end-to-end metric prints with its name and unit; that no
operation fails; that every per-layer metric appears in the traced run;
that ``sim_ms_per_op`` repeats exactly on ``sql-mix`` and
``stream-window``; that one corrupted answer is counted as failed; that
``BENCHMARK.json`` declares the metrics ``run.py`` reports; and that the
benchmark fails without printing a result when the program is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import END_TO_END, GUARDS, PER_LAYER, ROOT, SPAN_DIR, measure

#: Operations per smoke run: one sql-mix deck, a few serving windows, a
#: few ticks past the window fill.
OPS = {"sql-mix": 22, "serve-zipf": 160, "stream-window": 40}


def check_contract() -> None:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert declared == END_TO_END, declared
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert declared == {name: spec[0] for name, spec in PER_LAYER.items()}, declared
    assert {w["name"] for w in contract["workloads"]} == set(OPS)
    readme = (ROOT / "perfbench" / "README.md").read_text()
    missing = [name for name in PER_LAYER if f"`{name}`" not in readme]
    assert not missing, f"README.md does not document {missing}"


def check_inputs(workload: str) -> None:
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    first, again, other = cls(7).inputs_digest(), cls(7).inputs_digest(), cls(8).inputs_digest()
    assert first == again, f"{workload}: same seed, different inputs"
    assert first != other, f"{workload}: different seeds, same inputs"


def check_timed(workload: str) -> float:
    measurement, result = measure(workload, 7, None, False, OPS[workload])
    text = "\n".join(measurement.lines)
    guards = {name: PER_LAYER[name][0] for name in GUARDS}
    for name, unit in {**END_TO_END, **guards}.items():
        assert any(
            line.split()[:1] == [name] and unit in line.split() for line in measurement.lines
        ), f"{workload}: {name} [{unit}] missing from\n{text}"
    assert result["correct"] and result["failed"] == 0, result
    assert measurement.failed_share() == 0.0
    assert set(result["metrics"]) == set(END_TO_END)

    log, check = measurement.checked[0]
    op = next(op for op in log.ops if op.answer is not None and measurement.workload.exact(op))
    measurement.workload.corrupt(op)
    recheck = measurement.workload.check(log)
    assert len(recheck.wrong) == len(check.wrong) + 1, f"{workload}: corruption not counted"
    return measurement.sim_ms_per_op()


def check_traced(workload: str) -> None:
    measurement, result = measure(workload, 7, None, True, OPS[workload])
    text = "\n".join(measurement.lines)
    assert set(result["metrics"]) == set(PER_LAYER), result["metrics"].keys()
    for name in PER_LAYER:
        assert any(line.split()[:1] == [name] for line in measurement.lines), (
            f"{workload}: {name} missing from\n{text}"
        )
    assert result["correct"] and result["failed"] == 0, result


def check_bare_directory() -> None:
    """Without the program, the benchmark exits non-zero and prints no
    result."""
    bare = SPAN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sql-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done


def main() -> int:
    check_contract()
    check_bare_directory()
    for workload in OPS:
        check_inputs(workload)
        first = check_timed(workload)
        if workload != "serve-zipf":
            # Serving batches depend on timing, so its simulated share per
            # request may vary; the other two workloads must repeat exactly.
            second = check_timed(workload)
            assert first == second, f"{workload}: sim_ms_per_op {first} != {second}"
        check_traced(workload)
        print(f"{workload}: ok")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
