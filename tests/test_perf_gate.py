"""The perf regression gate on hand-made report dicts (no timing runs)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError, PerfRegressionError
from repro.eval import perf
from repro.eval.chaos import load_chaos_summary
from repro.eval.perf import (
    SCHEMA,
    TRACKED_METRICS,
    Stage,
    Work,
    check_regression,
    compare_reports,
    load_perf_report,
)
from repro.eval.supervision import load_supervision_summary

#: The committed full baseline (every stage tracked).
BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "results" / "BENCH_perf.json"


def _report(values, equivalent=True):
    """A report tracking ``values`` (metric -> ratio), gate = value."""
    return {
        "schema": SCHEMA,
        "cases": {
            name.split(".")[0]: {"equivalent": equivalent} for name in values
        },
        "metrics": dict(values),
        "tracked": list(values),
        "gate": dict(values),
    }


def _all(value):
    return {name: value for name in TRACKED_METRICS}


class TestCompareReports:
    def test_threshold_validated(self):
        for threshold in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                compare_reports(_report(_all(4.0)), _report(_all(4.0)), threshold)

    def test_floor_is_gate_times_one_minus_threshold(self):
        baseline = _report(_all(4.0))
        baseline["metrics"] = _all(100.0)  # the gate value wins over metrics
        assert compare_reports(_report(_all(3.01)), baseline, 0.25) == []
        failures = compare_reports(_report(_all(2.99)), baseline, 0.25)
        assert len(failures) == len(TRACKED_METRICS)
        assert all("2.99 < 3.00" in line for line in failures)
        assert compare_reports(_report(_all(2.99)), baseline, 0.5) == []

    def test_improvement_never_fails(self):
        assert compare_reports(_report(_all(50.0)), _report(_all(4.0))) == []

    def test_missing_fresh_metric_fails(self):
        fresh = _report({name: 4.0 for name in TRACKED_METRICS[1:]})
        failures = compare_reports(fresh, _report(_all(4.0)))
        assert failures == [f"{TRACKED_METRICS[0]}: missing from the fresh report"]

    def test_stale_baseline_fails(self):
        baseline = _report({name: 4.0 for name in TRACKED_METRICS[:-1]})
        failures = compare_reports(_report(_all(4.0)), baseline)
        assert len(failures) == 1
        assert failures[0].startswith(f"{TRACKED_METRICS[-1]}: not in the baseline")

    def test_disagreeing_case_fails(self):
        failures = compare_reports(
            _report(_all(4.0), equivalent=False), _report(_all(4.0))
        )
        assert len(failures) == len(TRACKED_METRICS)
        assert all("disagreed" in line for line in failures)

    def test_check_regression_raises_on_failure(self):
        check_regression(_report(_all(4.0)), _report(_all(4.0)))
        with pytest.raises(PerfRegressionError, match=TRACKED_METRICS[0]):
            check_regression(_report(_all(1.0)), _report(_all(4.0)))


class TestSelectedStages:
    """A ``--stage`` subset run is gated on its own stages only."""

    def test_subset_passes_against_a_full_baseline(self):
        fresh = _report({"dwt.speedup": 4.0})
        baseline = _report(_all(4.0))
        assert compare_reports(fresh, baseline, stages=["dwt"]) == []
        unselected = compare_reports(fresh, baseline)
        assert len(unselected) == len(TRACKED_METRICS) - 1
        assert all("missing from the fresh report" in f for f in unselected)

    def test_selected_stage_still_regresses(self):
        fresh = _report({"dwt.speedup": 1.0, "wire.speedup": 1.0})
        failures = compare_reports(
            fresh, _report(_all(4.0)), stages=["dwt", "wire"]
        )
        assert [f.split(":")[0] for f in failures] == ["dwt.speedup", "wire.speedup"]

    def test_selected_stage_missing_from_baseline_is_stale(self):
        baseline = _report({"wire.speedup": 4.0})
        failures = compare_reports(
            _report({"dwt.speedup": 4.0}), baseline, stages=["dwt"]
        )
        assert len(failures) == 1
        assert failures[0].startswith("dwt.speedup: not in the baseline")

    def test_selected_stage_disagreeing_fails(self):
        fresh = _report({"dwt.speedup": 4.0}, equivalent=False)
        failures = compare_reports(fresh, _report(_all(4.0)), stages=["dwt"])
        assert failures == ["dwt: scalar and batch paths disagreed on this run"]

    def test_cli_stage_with_committed_baseline_exits_0(self, monkeypatch, capsys):
        def build(fast):
            return Work(
                4,
                lambda: sorted(range(20000), reverse=True)[0],
                lambda: 19999,
                lambda ref, out: ref == out,
            )

        monkeypatch.setattr(perf, "STAGES", (Stage("dwt", build),))
        argv = ["perf", "--fast", "--stage", "dwt", "--baseline", str(BASELINE)]
        assert main(argv) == 0
        assert f"regression gate OK vs {BASELINE}" in capsys.readouterr().out


class TestLoadReport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(_report(_all(4.0))))
        assert load_perf_report(path)["tracked"] == list(TRACKED_METRICS)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({**_report(_all(4.0)), "schema": "other/2"}))
        with pytest.raises(ConfigurationError, match="other/2"):
            load_perf_report(path)


@pytest.mark.parametrize(
    "load", [load_perf_report, load_chaos_summary, load_supervision_summary]
)
class TestUnusableReportFiles:
    """Every report loader turns a bad file into one ConfigurationError."""

    def test_missing_file(self, load, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load(tmp_path / "absent.json")

    @pytest.mark.parametrize("text", ["{not json", "", "\udcff"])
    def test_invalid_json(self, load, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load(path)

    @pytest.mark.parametrize("document", [{"schema": "other/2"}, {}, [1, 2], "text"])
    def test_wrong_schema(self, load, tmp_path, document):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="unknown .* schema"):
            load(path)


class TestStageTable:
    def test_lists_derive_from_the_table(self):
        names = tuple(stage.name for stage in perf.STAGES)
        assert perf.ALL_STAGES == names
        assert TRACKED_METRICS == tuple(f"{name}.speedup" for name in names)

    def test_disagreeing_stage_exits_2_and_is_named(self, monkeypatch, capsys):
        def build(fast):
            return Work(
                4,
                lambda: np.zeros(4),
                lambda: np.ones(4),
                lambda ref, out: bool(np.array_equal(ref, out)),
            )

        monkeypatch.setattr(perf, "STAGES", (Stage("broken_twin", build),))
        assert main(["perf", "--fast", "--stage", "broken_twin"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "broken_twin" in err

    def test_agreeing_stage_exits_0(self, monkeypatch, capsys):
        def build(fast):
            return Work(
                4,
                lambda: sum(range(1000)),
                lambda: sum(range(1000)),
                lambda ref, out: ref == out,
            )

        monkeypatch.setattr(perf, "STAGES", (Stage("twin", build),))
        assert main(["perf", "--fast", "--stage", "twin"]) == 0
        assert "twin" in capsys.readouterr().out
