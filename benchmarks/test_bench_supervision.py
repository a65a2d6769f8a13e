"""Fleet supervision benchmark: breaker economics, quarantine, resume.

Runs the supervision stage against the C1 case and asserts the
paper-level acceptance criteria of the supervision tier:

- the link circuit breaker **strictly reduces wasted retry radio
  energy** under the flapping-link mix *without* reducing decision
  availability (the graceful-degradation cache serves blocked events);
- the fleet supervisor **quarantines** the flapping device and walks it
  back through recovery/probation on clean rounds;
- an interrupted campaign **resumes bit-identically** to the
  uninterrupted run.

The machine-readable summary lands in
``benchmarks/results/BENCH_supervision.json`` (``results-fast/`` under
``XPRO_BENCH_FAST=1``); CI smoke runs the same gate via
``python -m repro supervision --smoke``.  See ``docs/SUPERVISION.md``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval.supervision import (
    SCENARIOS,
    SUMMARY_SCHEMA,
    check_supervision_gate,
    fleet_rows,
    load_supervision_summary,
    supervision_eval,
    supervision_rows,
    write_supervision_summary,
)
from repro.eval.tables import format_table
from repro.sim.supervise import HEALTHY, RECOVERING

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
FAST_MODE = os.environ.get("XPRO_BENCH_FAST", "") not in ("", "0")


@pytest.fixture(scope="module")
def supervision_summary(full_context):
    """One supervision stage per session, summary written out."""
    out_dir = RESULTS_DIR.with_name("results-fast") if FAST_MODE else RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    if FAST_MODE:
        events, devices, round_events = 240, 3, 80
    else:
        events, devices, round_events = 800, 4, 150
    summary = supervision_eval(
        full_context,
        symbol="C1",
        n_events=events,
        seed=11,
        devices=devices,
        rounds=6,
        round_events=round_events,
    )
    write_supervision_summary(summary, out_dir / "BENCH_supervision.json")
    return summary


def test_summary_schema_and_roundtrip(supervision_summary, save_table):
    assert supervision_summary["schema"] == SUMMARY_SCHEMA
    out_dir = RESULTS_DIR.with_name("results-fast") if FAST_MODE else RESULTS_DIR
    loaded = load_supervision_summary(out_dir / "BENCH_supervision.json")
    assert loaded == supervision_summary
    save_table(
        "supervision",
        format_table(
            supervision_rows(supervision_summary),
            title="Circuit breaker under the flapping-link mix (C1)",
            float_format="{:.4g}",
        )
        + "\n\n"
        + format_table(
            fleet_rows(supervision_summary),
            title="Fleet supervision: final device states",
        ),
    )


def test_breaker_strictly_reduces_wasted_energy(supervision_summary):
    """Acceptance: less wasted retry radio energy with the breaker on."""
    rows = {row["scenario"]: row for row in supervision_rows(supervision_summary)}
    off, on = rows[SCENARIOS[0]], rows[SCENARIOS[1]]
    assert on["wasted_radio_uj"] < off["wasted_radio_uj"]
    assert on["blocked_events"] > 0 and on["opens"] > 0
    assert supervision_summary["wasted_radio_saved_uj"] > 0
    assert supervision_summary["breaker_saves_energy"] is True


def test_breaker_preserves_availability(supervision_summary):
    """Acceptance: the breaker must not cost decision availability."""
    rows = {row["scenario"]: row for row in supervision_rows(supervision_summary)}
    off, on = rows[SCENARIOS[0]], rows[SCENARIOS[1]]
    assert on["availability_pct"] >= off["availability_pct"] - 1e-9
    assert supervision_summary["availability_preserved"] is True


def test_fleet_quarantines_and_recovers_sick_device(supervision_summary):
    """The flapping device is quarantined, rested and rehabilitated."""
    fleet = supervision_summary["fleet"]
    assert fleet["sick_quarantines"] >= 1
    assert fleet["sick_rest_rounds"] >= 1
    assert fleet["sick_final_state"] in (HEALTHY, RECOVERING)
    healthy_peers = [
        name
        for name, state in fleet["final_states"].items()
        if name != fleet["sick_device"]
    ]
    assert all(fleet["final_states"][n] == HEALTHY for n in healthy_peers)
    # The sick device was unscheduled while quarantined.
    quarantined_rounds = [
        h for h in fleet["history"] if fleet["sick_device"] not in h["scheduled"]
    ]
    assert len(quarantined_rounds) == fleet["sick_rest_rounds"]


def test_resume_is_bit_identical(supervision_summary):
    """Acceptance: interrupt + resume reproduces the reference report."""
    resume = supervision_summary["resume"]
    assert resume is not None
    assert resume["bit_identical"] is True
    assert resume["reference_digest"] == resume["resumed_digest"]
    assert supervision_summary["resume_bit_identical"] is True


def test_supervision_gate_passes(supervision_summary):
    """The CI gate itself must accept the fresh summary."""
    check_supervision_gate(supervision_summary)
