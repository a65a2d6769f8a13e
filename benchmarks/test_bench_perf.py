"""Scalar-vs-batch performance benchmark and its per-stage floors.

Times the vectorized hot paths against their scalar references — feature
extraction, multi-level DWT, ensemble inference, the end-to-end segment
pipeline, the warm-started generator fast path, the batch wire data
plane (framing/CRC/Q16.16 codec), the struct-of-arrays fleet engine
(vs its per-object scalar twin), the struct-of-arrays multi-stream
ingestion engine (vs its per-stream scalar twin) and the fold-sliced
subspace training fast path (vs the pinned reference SMO protocol) —
and writes the machine-readable report to
``benchmarks/results/BENCH_perf.json`` (``results-fast/`` under
``XPRO_BENCH_FAST=1``).  See ``docs/PERFORMANCE.md`` for the report
schema and the gate semantics.

The gate is :func:`repro.eval.perf.check_report`: every stage's two paths
must agree and its speed-up ratio must reach the floor in its
:data:`~repro.eval.perf.STAGES` row.  Ratios of two timings on the same
machine are compared (never absolute throughput), so the floors are
portable across runner hardware.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval.perf import (
    SCHEMA,
    check_report,
    collect_perf_report,
    perf_rows,
    write_perf_report,
)
from repro.eval.tables import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
FAST_MODE = os.environ.get("XPRO_BENCH_FAST", "") not in ("", "0")


@pytest.fixture(scope="module")
def perf_report():
    """One benchmark sweep per session, written to the results directory."""
    report = collect_perf_report(fast=FAST_MODE)
    out_dir = RESULTS_DIR.with_name("results-fast") if FAST_MODE else RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    write_perf_report(report, out_dir / "BENCH_perf.json")
    return report


def test_report_schema(perf_report, save_table):
    assert perf_report["schema"] == SCHEMA
    save_table("perf", format_table(perf_rows(perf_report), title="Batch speedups"))


def test_stage_floors(perf_report):
    """Every stage's paths agree and its speed-up reaches its row's floor."""
    check_report(perf_report)


def test_paper_scale(perf_report):
    """Acceptance for what is not a ratio: the work sizes behind them.

    Full mode sizes the fleet at 10^4 devices, runs >= 1000 concurrent
    streams on a heterogeneous window/hop grid, and trains the §4.4
    protocol end to end (100 subspace draws x 10-fold CV plus final
    refits) with decision identity checked on all six Table-1 cases.
    The streaming case carries p50/p99 per-window tick-latency extras.
    """
    cases = perf_report["cases"]
    assert cases["extraction"]["n_items"] >= 256
    assert cases["wire"]["n_items"] >= 512
    streaming = cases["streaming"]
    assert streaming["p50_window_latency_ms"] > 0.0
    assert streaming["p99_window_latency_ms"] >= streaming["p50_window_latency_ms"]
    assert cases["training"]["cv_folds"] >= 10
    if not FAST_MODE:
        assert cases["fleet"]["n_items"] >= 10_000
        assert streaming["n_streams"] >= 1000
        assert streaming["speedup"] >= 8.0, (
            f"streaming speedup {streaming['speedup']:.2f} < 8"
        )
        assert cases["training"]["n_items"] >= 100
        assert cases["training"]["cases_checked"] >= 6
