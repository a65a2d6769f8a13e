"""Adversarial chaos benchmark: search the fault space, emit replay bundles.

Runs the full strategist -> driver -> judge orchestration against the C1
case, asserts the paper-level acceptance criteria (the search finds a
fault mix strictly worse than every fixed seeded mix, and its worst-case
replay bundle re-runs bit-identically), and
writes the machine-readable summary to
``benchmarks/results/BENCH_chaos.json`` (``results-fast/`` under
``XPRO_BENCH_FAST=1``) together with the Pareto-frontier replay bundles.

The nightly regression gate (``python -m repro chaos ... --baseline``)
compares a freshly searched summary against the committed baseline
``benchmarks/results/BENCH_chaos_baseline.json``; see ``docs/CHAOS.md``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval.chaos import (
    SUMMARY_SCHEMA,
    chaos_from_context,
    chaos_rows,
    compare_chaos_summaries,
    write_chaos_summary,
)
from repro.eval.tables import format_table
from repro.sim.chaos import assert_replay, load_bundle

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
FAST_MODE = os.environ.get("XPRO_BENCH_FAST", "") not in ("", "0")


@pytest.fixture(scope="module")
def chaos_summary(full_context):
    """One adversarial search per session, summary + bundles written out."""
    out_dir = RESULTS_DIR.with_name("results-fast") if FAST_MODE else RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    bundle_dir = out_dir / "chaos-bundles"
    if FAST_MODE:
        events, population, generations = 200, 4, 2
    else:
        events, population, generations = 600, 8, 4
    summary = chaos_from_context(
        full_context,
        symbol="C1",
        n_events=events,
        seed=11,
        population=population,
        generations=generations,
        bundle_dir=bundle_dir,
    )
    write_chaos_summary(summary, out_dir / "BENCH_chaos.json")
    return summary


def test_summary_schema(chaos_summary, save_table):
    assert chaos_summary["schema"] == SUMMARY_SCHEMA
    assert chaos_summary["fixed"], "no fixed-mix baselines judged"
    assert chaos_summary["frontier"], "empty Pareto frontier"
    save_table(
        "chaos",
        format_table(
            chaos_rows(chaos_summary),
            title="Adversarial chaos search (C1, worst cases found)",
            float_format="{:.4g}",
        ),
    )


def test_search_beats_every_fixed_mix(chaos_summary):
    """Acceptance: strictly worse on availability or silent corruption
    than every fixed seeded mix of the resilience/integrity evals."""
    assert chaos_summary["strictly_worse_than_fixed"] is True


def test_worst_bundle_replays_bit_identically(chaos_summary):
    """Acceptance: the worst-case bundle re-ran bit-identically during the
    eval itself."""
    replay = chaos_summary["replay"]
    assert replay is not None
    assert replay["bit_identical"] is True
    assert replay["report_digest"] == chaos_summary["worst"]["report_digest"]


def test_emitted_bundles_load_and_replay(chaos_summary):
    """Every Pareto-frontier bundle on disk must replay to its digest."""
    paths = chaos_summary["bundle_paths"]
    assert paths, "no replay bundles were written"
    # The eval replays only the worst bundle; here one round-trip per
    # frontier bundle keeps the bench honest.
    for path in paths:
        result = assert_replay(load_bundle(path))
        assert result.matches


def test_summary_is_self_consistent(chaos_summary):
    """The summary's own axes_max must dominate its frontier rows."""
    for row in chaos_summary["frontier"]:
        assert row["unavailability_pct"] <= (
            100.0 * chaos_summary["axes_max"]["unavailability"] + 1e-9
        )
        assert row["silent_corruption_pct"] <= (
            100.0 * chaos_summary["axes_max"]["silent_corruption"] + 1e-9
        )
    assert compare_chaos_summaries(chaos_summary, chaos_summary) == []
