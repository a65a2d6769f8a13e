"""The perf gate and report layout on hand-made reports and instant stages
(no real timing runs)."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, PerfRegressionError
from repro.eval import perf
from repro.eval.chaos import load_chaos_summary
from repro.eval.perf import (
    SCHEMA,
    Stage,
    Work,
    check_report,
    collect_perf_report,
    load_perf_report,
    write_perf_report,
)
from repro.eval.supervision import load_supervision_summary


def _case(speedup, floor=4.0, equivalent=True):
    return {"speedup": speedup, "floor": floor, "equivalent": equivalent}


def _report(**cases):
    return {"schema": SCHEMA, "cases": cases}


def _agreeing(fast):
    return Work(4, lambda: sum(range(1000)), lambda: sum(range(1000)), lambda r, o: r == o)


class TestCheckReport:
    def test_at_or_above_the_floor_passes(self):
        check_report(_report(dwt=_case(4.0), wire=_case(50.0)))

    def test_names_every_disagreeing_stage(self):
        report = _report(
            dwt=_case(9.0, equivalent=False),
            wire=_case(9.0),
            fleet=_case(1.0, equivalent=False),
        )
        with pytest.raises(PerfRegressionError) as exc:
            check_report(report)
        lines = str(exc.value).splitlines()[1:]
        assert [line.strip() for line in lines] == [
            "dwt: scalar and batch paths disagreed",
            "fleet: scalar and batch paths disagreed",
            "fleet: speedup 1.00 < floor 4.00",
        ]


class TestSelectedStages:
    """A ``--stage`` subset run is gated on its own stages only."""

    def test_unselected_stages_are_not_gated(self, monkeypatch):
        monkeypatch.setattr(
            perf,
            "STAGES",
            (Stage("dwt", _agreeing, floor=0.0), Stage("wire", _agreeing, floor=1e6)),
        )
        assert main(["perf", "--fast", "--stage", "dwt"]) == 0

    def test_selected_stage_still_regresses(self):
        report = _report(dwt=_case(3.99), wire=_case(1.0, floor=8.0), fleet=_case(9.0))
        with pytest.raises(PerfRegressionError) as exc:
            check_report(report)
        message = str(exc.value)
        assert "dwt: speedup 3.99 < floor 4.00" in message
        assert "wire: speedup 1.00 < floor 8.00" in message
        assert "fleet" not in message

    def test_selected_stage_disagreeing_fails(self):
        with pytest.raises(PerfRegressionError, match="dwt: scalar and batch paths"):
            check_report(_report(dwt=_case(4.0, equivalent=False)))


class TestLoadReport:
    def test_round_trip(self, tmp_path):
        report = _report(dwt=_case(4.0))
        path = write_perf_report(report, tmp_path / "BENCH_perf.json")
        assert load_perf_report(path) == report

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        for schema in ("other/2", "xpro-bench-perf/1"):
            path.write_text(json.dumps({**_report(dwt=_case(4.0)), "schema": schema}))
            with pytest.raises(ConfigurationError, match=schema):
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


class TestReportLayout:
    """The ``xpro-bench-perf/2`` layout, pinned on instant stages."""

    def test_v2_layout(self, monkeypatch):
        def with_extras(fast):
            return _agreeing(fast)._replace(extras={"z_extra": 1.0, "a_extra": 2.0})

        monkeypatch.setattr(
            perf,
            "STAGES",
            (Stage("zeta", with_extras, floor=2.5), Stage("alpha", _agreeing, floor=0.0)),
        )
        report = collect_perf_report(fast=True)
        assert report["schema"] == SCHEMA == "xpro-bench-perf/2"
        assert list(report) == ["schema", "fast_mode", "python", "machine", "repeats", "cases"]
        assert (report["fast_mode"], report["repeats"]) == (True, 1)
        assert list(report["cases"]) == ["zeta", "alpha"]
        zeta = report["cases"]["zeta"]
        assert list(zeta) == [
            "n_items", "scalar_wall_s", "batch_wall_s", "scalar_per_s",
            "batch_per_s", "speedup", "equivalent", "floor", "a_extra", "z_extra",
        ]
        assert (zeta["n_items"], zeta["floor"], zeta["equivalent"]) == (4, 2.5, True)

    def test_paths_are_timed_interleaved(self, monkeypatch):
        calls = []
        ref, fast = (lambda: calls.append("ref")), (lambda: calls.append("fast"))
        work = Work(1, ref, fast, lambda r, o: True)
        monkeypatch.setattr(perf, "STAGES", (Stage("twin", lambda fast: work, 0.0, 3),))
        collect_perf_report(fast=True)
        assert calls == ["ref", "fast"] * 3  # the first timed pair is also checked


class TestStageTable:
    def test_lists_derive_from_the_table(self):
        names = tuple(stage.name for stage in perf.STAGES)
        assert perf.ALL_STAGES == names

    def test_floors_pin_the_table(self):
        assert {stage.name: stage.floor for stage in perf.STAGES} == {
            "extraction": 6.30,
            "dwt": 2.67,
            "inference": 5.74,
            "end_to_end": 7.11,
            "generator": 5.00,
            "wire": 8.00,
            "fleet": 8.00,
            "streaming": 4.44,
            "training": 5.00,
        }

    def test_a_stage_needs_a_floor(self):
        with pytest.raises(TypeError):
            Stage("twin", _agreeing)  # type: ignore[call-arg]

    def test_disagreeing_stage_exits_2_and_is_named(self, monkeypatch, capsys):
        work = Work(4, lambda: 0, lambda: 1, lambda ref, out: ref == out)
        monkeypatch.setattr(perf, "STAGES", (Stage("broken_twin", lambda fast: work, 0.0),))
        assert main(["perf", "--fast", "--stage", "broken_twin"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "broken_twin" in err

    def test_stage_below_its_floor_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(perf, "STAGES", (Stage("slow_twin", _agreeing, floor=1e6),))
        assert main(["perf", "--fast", "--stage", "slow_twin"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "slow_twin: speedup" in err and "< floor 1000000.00" in err

    def test_agreeing_stage_exits_0(self, monkeypatch, capsys):
        monkeypatch.setattr(perf, "STAGES", (Stage("twin", _agreeing, floor=0.0),))
        assert main(["perf", "--fast", "--stage", "twin"]) == 0
        assert "twin" in capsys.readouterr().out

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_exits_2(self, capsys, repeats):
        assert main(["perf", "--stage", "dwt", "--repeats", repeats]) == 2
        assert "repeats must be >= 1" in capsys.readouterr().err
