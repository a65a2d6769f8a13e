"""CLI robustness: bad input must exit 2 with a one-line error, no traceback."""

import json

import pytest

from repro.cli import main
from repro.sim.checkpoint import stable_digest

from .test_chaos import golden_bundle


def _single_error_line(captured) -> str:
    """Assert stderr is exactly one line and return it."""
    lines = [ln for ln in captured.err.splitlines() if ln.strip()]
    assert len(lines) == 1, f"expected one error line, got: {captured.err!r}"
    assert "Traceback" not in captured.err
    return lines[0]


class TestArgparseErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2
        assert _single_error_line(capsys.readouterr()).startswith("error:")

    def test_unknown_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--bogus-flag"])
        assert exc.value.code == 2
        assert _single_error_line(capsys.readouterr()).startswith("error:")

    def test_invalid_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--node", "warp-speed"])
        assert exc.value.code == 2
        assert _single_error_line(capsys.readouterr()).startswith("error:")

    def test_bad_int_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--events", "lots"])
        assert exc.value.code == 2
        assert _single_error_line(capsys.readouterr()).startswith("error:")


class TestDomainErrors:
    def test_unknown_perf_stage_returns_2(self, capsys):
        code = main(["perf", "--stage", "bogus-stage"])
        assert code == 2
        assert _single_error_line(capsys.readouterr()).startswith("error:")

    def test_missing_replay_bundle_returns_2(self, capsys, tmp_path):
        code = main(["chaos", "--replay", str(tmp_path / "absent.json")])
        assert code == 2
        assert _single_error_line(capsys.readouterr()).startswith("error:")

    def test_corrupt_replay_bundle_returns_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["chaos", "--replay", str(bad)])
        assert code == 2
        assert _single_error_line(capsys.readouterr()).startswith("error:")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("expected", {}),
            ("expected", []),
            ("expected", {"report_digest": 5}),
            ("scenario", {}),
            ("scenario", []),
            ("scenario", {"seed": 1, "n_events": 10, "erasure_rate": 2.0}),
            ("run", {}),
            ("run", "model2"),
        ],
        ids=[
            "expected-empty", "expected-list", "digest-not-string",
            "scenario-empty", "scenario-list", "scenario-out-of-range",
            "run-empty", "run-string",
        ],
    )
    def test_malformed_replay_bundle_returns_2(self, capsys, tmp_path, field, value):
        """A bundle whose schema and ``bundle_id`` check out but whose body
        does not decode is refused before anything runs."""
        bundle = golden_bundle()
        bundle[field] = value
        spec = {"scenario": bundle["scenario"], "run": bundle["run"]}
        bundle["bundle_id"] = stable_digest(spec)[:16]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(bundle))
        code = main(["chaos", "--replay", str(path)])
        assert code == 2
        line = _single_error_line(capsys.readouterr())
        assert line.startswith("error:")
        assert "malformed bundle" in line

    @pytest.mark.parametrize("text", [None, "{not json", '{"schema": "other"}'])
    @pytest.mark.parametrize("argv", [["chaos"], ["chaos", "--smoke"]])
    def test_unusable_baseline_returns_2(self, capsys, tmp_path, argv, text):
        """The baseline is read before any training or search runs, at full
        scale as at smoke scale."""
        baseline = tmp_path / "baseline.json"
        if text is not None:
            baseline.write_text(text)
        code = main([*argv, "--baseline", str(baseline)])
        assert code == 2
        assert _single_error_line(capsys.readouterr()).startswith("error:")
