"""Tests for the benchmark history store."""

import pytest

from repro.bench.history import (
    compare,
    figure_to_record,
    load_figure,
    record_to_figure,
    save_figure,
)
from repro.bench.report import Figure
from repro.errors import InvalidParameterError


def _make_figure(values):
    figure = Figure("fig-test", "demo", "k", "ms")
    series = figure.add_series("bitonic")
    for x, y in values.items():
        series.add(x, y)
    return figure


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        figure = _make_figure({32: 15.4, 64: 18.0})
        path = tmp_path / "fig.json"
        save_figure(figure, path)
        loaded = load_figure(path)
        assert loaded.figure_id == "fig-test"
        assert loaded.series_by_name("bitonic").points == {"32": 15.4, "64": 18.0}

    def test_record_roundtrip_without_disk(self):
        figure = _make_figure({1: 2.0})
        rebuilt = record_to_figure(figure_to_record(figure))
        assert rebuilt.title == figure.title

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_figure(tmp_path / "missing.json")

    def test_load_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidParameterError):
            load_figure(path)


class TestCompare:
    def test_no_change_is_clean(self):
        baseline = _make_figure({32: 15.4})
        assert compare(baseline, _make_figure({32: 15.4})) == []

    def test_small_drift_within_tolerance(self):
        baseline = _make_figure({32: 100.0})
        assert compare(baseline, _make_figure({32: 103.0}), tolerance=0.05) == []

    def test_regression_detected(self):
        baseline = _make_figure({32: 100.0})
        regressions = compare(baseline, _make_figure({32: 130.0}))
        assert len(regressions) == 1
        assert regressions[0].ratio == pytest.approx(1.3)
        assert "bitonic[32]" in str(regressions[0])

    def test_improvements_also_flagged(self):
        baseline = _make_figure({32: 100.0})
        assert compare(baseline, _make_figure({32: 50.0}))

    def test_nan_is_a_regression_even_slower_only(self):
        # NaN compares false to everything, so neither "no slower" nor
        # "within tolerance" may pass it.
        baseline = _make_figure({32: 100.0})
        nan = float("nan")
        for before, after in ((baseline, _make_figure({32: nan})),
                              (_make_figure({32: nan}), baseline)):
            assert len(compare(before, after, slower_only=True)) == 1
            assert len(compare(before, after)) == 1

    def test_new_points_ignored(self):
        baseline = _make_figure({32: 100.0})
        current = _make_figure({32: 100.0, 64: 1.0})
        assert compare(baseline, current) == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidParameterError):
            compare(_make_figure({}), _make_figure({}), tolerance=-1)

    def test_real_figure_is_stable_against_itself(self):
        from repro.bench.figures import ablation_43

        figure = ablation_43()
        rebuilt = record_to_figure(figure_to_record(figure))
        assert compare(rebuilt, record_to_figure(figure_to_record(figure))) == []
