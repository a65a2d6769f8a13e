"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Every workload runs at ``--smoke`` scale through the benchmark's command
line.  The tests check that each run prints every metric
``BENCHMARK.json`` names, with its unit, and no failed operation; that
traced spans nest; that modelled metrics repeat exactly for a seed and
follow the seed; and that a perturbed reference makes the checks fail.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODELLED = (
    "sensor_uj_per_event",
    "modelled_delay_ms",
    "air_bytes_per_event",
    "delivered_fraction",
)
SECONDS = "1"


def bench(workload: str, seed: int, trace_out: Path = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", SECONDS, "--smoke",
        "--trace", "1" if trace_out else "0",
    ]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_clean(result: dict, stage: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC[stage]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_and_follow_the_seed(workload):
    first = bench(workload, seed=1)
    assert_clean(first, "end_to_end")
    assert all(m["value"] > 0 for m in first["metrics"].values())

    again = bench(workload, seed=1)
    for name in MODELLED:
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"], name

    other = bench(workload, seed=2)
    assert (
        other["metrics"]["air_bytes_per_event"]["value"]
        != first["metrics"]["air_bytes_per_event"]["value"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layers_and_nested_spans(workload, tmp_path):
    out = tmp_path / "spans.json"
    result = bench(workload, seed=1, trace_out=out)
    assert_clean(result, "per_layer")
    doc = json.loads(out.read_text())
    spans = doc["spans"]
    assert len(spans) == result["metrics"]["trace.spans"]["value"]

    own = [s["end"] - s["start"] for s in spans]
    for i, span in enumerate(spans):
        assert span["end"] >= span["start"]
        parent = span["parent"]
        if parent >= 0:
            assert parent < i
            outer = spans[parent]
            assert outer["start"] <= span["start"] and span["end"] <= outer["end"]
            assert span["rid"] == outer["rid"] or outer["rid"] is None
            own[parent] -= span["end"] - span["start"]
    assert min(own) >= -1e-9
    # The spans must cover the traced run, as the runner timed it.
    wall = doc["meta"]["wall_s"]
    assert abs(sum(own) - wall) <= 0.05 * wall


def _load_modules():
    """Import the workload modules in-process (the runner's path set-up)."""
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return importlib.import_module("common"), importlib.import_module("tracing")


def _break_crossend(module, state, monkeypatch):
    for case in state.expected:
        state.expected[case] = 1 - state.expected[case]


def _break_gateway(module, state, monkeypatch):
    stream = state.streams[0][0]
    stream.ok[0] = not stream.ok[0]


def _break_design_sweep(module, state, monkeypatch):
    honest = module.cold_reference

    def shifted(state, config, limit):
        metrics = honest(state, config, limit)
        return dataclasses.replace(metrics, sensor_compute_j=metrics.sensor_compute_j * 1.01)

    monkeypatch.setattr(module, "cold_reference", shifted)


def _break_fleet(module, state, monkeypatch):
    honest = module.simulate_fleet_soa

    def shifted(spec, rounds, policy=None):
        result = honest(spec, rounds, policy=policy)
        result.delivered[0] += 1
        return result

    monkeypatch.setattr(module, "simulate_fleet_soa", shifted)


@pytest.mark.parametrize(
    "workload, perturb",
    [
        ("crossend", _break_crossend),
        ("gateway", _break_gateway),
        ("design_sweep", _break_design_sweep),
        ("fleet", _break_fleet),
    ],
)
def test_a_perturbed_reference_fails_the_checks(workload, perturb, monkeypatch):
    common, tracing = _load_modules()
    module = importlib.import_module(workload)
    su = common.Setup(smoke=True)
    su.train()
    state = module.setup(su, 1, float(SECONDS))
    perturb(module, state, monkeypatch)
    ledger = common.Ledger()
    module.run(state, 0.2, tracing.Tracer(False), ledger)
    assert ledger.failed > 0
