"""Smoke tests guarding the example scripts against bit rot.

Only the fast examples run as subprocesses here (the training-heavy ones
are exercised indirectly: every API they touch is covered by the unit and
integration suites); the goal is to catch import errors and API drift in
the example code itself.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

#: Examples cheap enough to execute end-to-end in the test suite.
FAST_EXAMPLES = [
    "custom_pipeline.py",
    "multiclass_gestures.py",
    "resilient_link_demo.py",
    "wire_integrity_demo.py",
]

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


class TestExamples:
    def test_expected_examples_present(self):
        assert set(ALL_EXAMPLES) >= {
            "quickstart.py",
            "ecg_monitor.py",
            "design_space_explorer.py",
            "custom_pipeline.py",
            "bsn_network.py",
            "multiclass_gestures.py",
            "deployment_checklist.py",
            "adaptive_fall_monitor.py",
            "clinical_alerts.py",
            "resilient_link_demo.py",
            "wire_integrity_demo.py",
        }

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_every_example_compiles(self, name):
        source = (EXAMPLES_DIR / name).read_text()
        compile(source, name, "exec")
        assert '"""' in source.split("\n", 2)[-1] or source.lstrip().startswith(
            ('#!', '"""')
        )

    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_fast_examples_run(self, name):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / name)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip()
