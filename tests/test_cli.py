"""Tests for the top-level command line."""

import pytest

from repro.bench.figures import REGISTRY
from repro.cli import main


class TestTopKCommand:
    def test_runs_and_reports(self, capsys):
        assert main(["topk", "--n", "4096", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out
        assert "simulated" in out
        assert "top values" in out

    def test_explicit_algorithm_and_distribution(self, capsys):
        code = main(
            [
                "topk",
                "--n", "4096",
                "--k", "4",
                "--algorithm", "radix-select",
                "--distribution", "increasing",
            ]
        )
        assert code == 0
        assert "radix-select" in capsys.readouterr().out

    def test_timeline_rendering(self, capsys):
        assert main(["topk", "--n", "4096", "--k", "8", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "SortReducer" in out

    def test_model_n_extrapolation(self, capsys):
        assert main(
            ["topk", "--n", "4096", "--k", "8", "--model-n", "536870912"]
        ) == 0
        assert "536870912" in capsys.readouterr().out


class TestPlanCommand:
    def test_ranks_algorithms(self, capsys):
        assert main(["plan", "--n", "536870912", "--k", "256"]) == 0
        out = capsys.readouterr().out
        assert "bitonic" in out
        assert "radix-select" in out
        assert "choice" in out

    def test_profile_changes_the_ranking(self, capsys):
        main(["plan", "--k", "1024", "--dtype", "uint32",
              "--profile", "uniform-uint"])
        uint_out = capsys.readouterr().out
        main(["plan", "--k", "1024", "--profile", "bucket-killer"])
        killer_out = capsys.readouterr().out
        assert "radix-select" in uint_out.splitlines()[1]
        assert "bitonic" in killer_out.splitlines()[1]


class TestExplainCommand:
    def test_explains_a_query(self, capsys):
        code = main(
            [
                "explain",
                "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 10",
                "--rows", "8192",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "fused" in out


class TestServeBenchCommand:
    def test_small_workload_reports_and_passes(self, capsys):
        code = main(
            ["serve-bench", "--queries", "60", "--shapes", "2",
             "--n", "128", "--k", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "bit-equal" in out

    def test_json_report_and_baseline_round_trip(self, capsys, tmp_path):
        import json

        path = tmp_path / "BENCH_serving.json"
        code = main(
            ["serve-bench", "--queries", "60", "--shapes", "2",
             "--n", "128", "--k", "4", "--json", "--out", str(path)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is True
        assert payload["plan_cache"]["hit_rate"] > 0.9
        assert json.loads(path.read_text()) == payload
        # The run gates cleanly against its own baseline.
        code = main(
            ["serve-bench", "--queries", "60", "--shapes", "2",
             "--n", "128", "--k", "4", "--baseline", str(path)]
        )
        assert code == 0

    def test_ablation_flags(self, capsys):
        code = main(
            ["serve-bench", "--queries", "30", "--shapes", "2",
             "--n", "128", "--k", "4", "--no-cache", "--no-batch", "--json"]
        )
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["plan_cache"]["hits"] == 0
        assert payload["batcher"]["batches"] == 0
        assert payload["identical"] is True


def status(argv: list[str]) -> int:
    """``main``'s exit status, also where argparse exits itself."""
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


class TestDispatch:
    @pytest.mark.parametrize(
        "argv, code, stream, text",
        [
            ([], 2, "out", "topk"),
            (["figure-bench", "--help"], 0, "out", ",".join(REGISTRY)),
            (["figure-bench", "--figure", "fig99"], 2, "err", "fig99"),
        ],
        ids=["no-command", "figure-ids-in-help", "unknown-figure"],
    )
    def test_usage(self, argv, code, stream, text, capsys):
        assert status(argv) == code
        assert text in getattr(capsys.readouterr(), stream)
