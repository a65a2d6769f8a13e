"""Tests for the checkpoint journal (:mod:`repro.sim.checkpoint`).

The golden file pins live in ``test_checkpoint_golden.py`` and the resume
bit-identity tests in ``test_supervise.py``.  This module covers what the
format alone cannot promise: a checkpoint whose state digest is valid but
whose body is malformed (``state_digest`` is an unkeyed SHA-256, so
anyone can write one) must fail with :class:`~repro.errors.
CheckpointError` on every loop, never with a bare ``KeyError`` or
``ValueError`` from deep inside a decoder.  It also checks the atomic
writer that checkpoints and replay bundles share, and the module layering
that keeps the format free of campaign and chaos imports.
"""

import ast
import copy
import json
import os
from pathlib import Path

import pytest

import repro
from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.errors import CheckpointError
from repro.sim.channel import GilbertElliottParams
from repro.sim.checkpoint import Checkpointer, save_checkpoint, write_atomic
from repro.sim.chaos import (
    ChaosRunConfig,
    ChaosSearchConfig,
    ChaosScenario,
    build_bundle,
    chaos_search,
    save_bundle,
)
from repro.sim.faults import (
    BurstLoss,
    FaultCampaign,
    IntegrityConfig,
    PayloadCorruption,
    SensorBrownout,
)
from repro.sim.parallel import ParallelConfig, sweep
from repro.sim.simulator import CrossEndSimulator
from repro.sim.supervise import BreakerConfig, LinkCircuitBreaker

from .test_supervise import ARQ, _square, flapping, simulator, synthetic_metrics

#: Replacement values of the hostile mutations: wrong types, a float where
#: an integer belongs, and out-of-range integers.
MUTANTS = ("zz", None, [], {}, 1.5, -1, 10**6)

#: Marker of the "remove this key or list element" mutation.
DELETE = object()


def _paths(node, path=()):
    """Every path of a JSON tree; lists only through their last element."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list) and node:
        yield from _paths(node[-1], path + (len(node) - 1,))


def hostile_states(state):
    """``(label, state)`` for every single-site mutation of ``state``."""
    for path in _paths(state):
        if not path:
            continue
        for op in (DELETE, *MUTANTS):
            mutated = copy.deepcopy(state)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if op is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(op)
            label = "delete" if op is DELETE else repr(op)
            yield f"{'/'.join(map(str, path))} <- {label}", mutated


class FirstSnapshot(Checkpointer):
    """Keeps only the first snapshot, so a resume still has work left."""

    def save(self, *args, **kwargs):
        if not self.saves:
            return super().save(*args, **kwargs)


def assert_only_checkpoint_errors(tmp_path, kind, run, every):
    """Resume ``run`` from every re-digested mutation of its first snapshot."""
    path = tmp_path / f"{kind}.json"
    run(FirstSnapshot(path, every=every))
    doc = json.loads(path.read_text())
    rejected, escaped = 0, []
    for label, state in hostile_states(doc["state"]):
        save_checkpoint(path, kind, doc["config_key"], state)
        try:
            run(Checkpointer(path, every=every), resume=True)
        except CheckpointError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - the assertion target
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped)
    assert rejected > 0


def flapping_run(fast):
    def run(checkpoint, resume=False):
        return flapping().run(
            simulator(), 120, arq=ARQ,
            policy=GracefulDegradationPolicy(outage_threshold=3, recovery_hysteresis=8),
            fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7),
            cache=LastKnownGoodCache(),
            breaker=LinkCircuitBreaker(BreakerConfig(failure_threshold=3)),
            fast=fast, checkpoint=checkpoint, resume=resume,
        )

    return run


def jittered_run(fast):
    def run(checkpoint, resume=False):
        campaign = FaultCampaign(
            [
                BurstLoss(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
                PayloadCorruption(0.08, mode="bitflip"),
                SensorBrownout(start_event=40, n_events=5),
            ],
            seed=9,
        )
        return campaign.run(
            CrossEndSimulator(
                synthetic_metrics(), period_s=0.25, jitter_sigma=0.3, seed=3
            ),
            120, arq=ARQ, cache=LastKnownGoodCache(),
            integrity=IntegrityConfig(values_per_payload=8),
            fast=fast, checkpoint=checkpoint, resume=resume,
        )

    return run


def sweep_run(checkpoint, resume=False):
    return sweep(
        _square, {"x": [0, 1, 2], "y": [1, 2]},
        config=ParallelConfig(backend="serial"),
        checkpoint=checkpoint, resume=resume,
    )


def chaos_run(checkpoint, resume=False):
    return chaos_search(
        ChaosRunConfig(
            metrics=synthetic_metrics(),
            fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7, crossing_bits_up=16),
            period_s=0.25,
            sim_seed=7,
        ),
        search=ChaosSearchConfig(population=3, generations=2, seed=1, fast=True),
        n_events=30,
        checkpoint=checkpoint,
        resume=resume,
    )


class TestHostileState:
    @pytest.mark.parametrize(
        "run",
        [flapping_run(True), flapping_run(False), jittered_run(True), jittered_run(False)],
        ids=["flapping-fast", "flapping-scalar", "jittered-fast", "jittered-scalar"],
    )
    def test_campaign(self, tmp_path, run):
        assert_only_checkpoint_errors(tmp_path, "campaign", run, every=50)

    def test_sweep(self, tmp_path):
        assert_only_checkpoint_errors(tmp_path, "sweep", sweep_run, every=2)

    def test_chaos(self, tmp_path):
        assert_only_checkpoint_errors(tmp_path, "chaos", chaos_run, every=2)

    def test_campaign_regressions(self, tmp_path):
        """A missing cursor, a short record, a non-hex clock, no ``extra``."""
        path = tmp_path / "campaign.json"
        run = flapping_run(True)
        run(Checkpointer(path, every=50))
        doc = json.loads(path.read_text())
        edits = {
            "cursor": lambda s: s.pop("cursor"),
            "record": lambda s: s["records"][-1].pop(),
            "clock": lambda s: s["clocks"].__setitem__(0, "zz"),
            "extra": lambda s: s.pop("extra"),
        }
        for name, edit in edits.items():
            state = copy.deepcopy(doc["state"])
            edit(state)
            save_checkpoint(path, "campaign", doc["config_key"], state)
            with pytest.raises(CheckpointError, match="malformed campaign"):
                run(Checkpointer(path, every=50), resume=True)

    @pytest.mark.parametrize(
        "fast,field,match",
        [(True, "a", "active-event cursor"), (False, "seq_base", "frame sequence")],
        ids=["fast", "scalar"],
    )
    def test_runner_cursor_must_follow_event_cursor(self, tmp_path, fast, field, match):
        """A shifted runner cursor would replay other jitter or frames."""
        path = tmp_path / "campaign.json"
        run = jittered_run(fast)
        run(Checkpointer(path, every=50))
        doc = json.loads(path.read_text())
        doc["state"]["extra"][field] += 1
        save_checkpoint(path, "campaign", doc["config_key"], doc["state"])
        with pytest.raises(CheckpointError, match=match):
            run(Checkpointer(path, every=50), resume=True)

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda s: s.__setitem__("cursor", 99), "does not fit this run"),
            (lambda s: s["records"][-1].__setitem__(0, 7), "does not fit this run"),
            (lambda s: s["records"][-1].__setitem__(1, "zz"), "decision status"),
            (lambda s: s["counters"].__setitem__(0, -1), "negative campaign counter"),
            (lambda s: s["wire"].__setitem__("frames_sent", -1), "negative campaign"),
        ],
        ids=["cursor", "record-index", "record-status", "counter", "wire"],
    )
    def test_state_that_would_unbalance_the_report(self, tmp_path, edit, match):
        """Well-typed values that would resume into a report whose
        statuses or counters no longer balance."""
        path = tmp_path / "campaign.json"
        run = flapping_run(False)
        run(Checkpointer(path, every=50))
        doc = json.loads(path.read_text())
        edit(doc["state"])
        save_checkpoint(path, "campaign", doc["config_key"], doc["state"])
        with pytest.raises(CheckpointError, match=match):
            run(Checkpointer(path, every=50), resume=True)

    def test_chaos_outcomes_must_match_evaluations(self, tmp_path):
        """A finished search's snapshot leaves no work to refill them."""
        path = tmp_path / "chaos.json"
        chaos_run(Checkpointer(path, every=2))
        doc = json.loads(path.read_text())
        doc["state"]["outcomes"] = []
        save_checkpoint(path, "chaos", doc["config_key"], doc["state"])
        with pytest.raises(CheckpointError, match="outcomes of"):
            chaos_run(Checkpointer(path, every=2), resume=True)

    def test_chaos_scenarios_must_fit_the_search(self, tmp_path):
        path = tmp_path / "chaos.json"
        chaos_run(FirstSnapshot(path, every=2))
        doc = json.loads(path.read_text())
        doc["state"]["population"][-1]["n_events"] += 1
        save_checkpoint(path, "chaos", doc["config_key"], doc["state"])
        with pytest.raises(CheckpointError, match="31 events in a 30-event"):
            chaos_run(Checkpointer(path, every=2), resume=True)

    def test_scenario_fields_cast_to_declared_types(self):
        data = ChaosScenario(seed=3, n_events=10).to_dict()
        data.update(n_events=12.0, stall_ms=2)
        scenario = ChaosScenario.from_dict(data)
        assert type(scenario.n_events) is int and type(scenario.stall_ms) is float
        with pytest.raises(ValueError):
            ChaosScenario.from_dict({**data, "burst_p_gb": "zz"})


class TestCheckpointer:
    def test_due_every_n(self, tmp_path):
        ck = Checkpointer(tmp_path / "ck.json", every=3)
        assert [n for n in range(10) if ck.due(n)] == [3, 6, 9]

    def test_save_counts_and_load_decodes(self, tmp_path):
        ck = Checkpointer(tmp_path / "ck.json", every=1)
        ck.save("campaign", "k", {"cursor": 4})
        ck.save("campaign", "k", {"cursor": 5})
        assert ck.saves == 2
        assert ck.load("campaign", "k", lambda s: s["cursor"] * 2) == 10

    def test_decoder_errors_become_checkpoint_errors(self, tmp_path):
        ck = Checkpointer(tmp_path / "ck.json", every=1)
        ck.save("sweep", "k", {"done": {}})
        with pytest.raises(CheckpointError, match="KeyError"):
            ck.load("sweep", "k", lambda s: s["missing"])


class TestAtomicWrites:
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "doc.json"
        write_atomic(target, "old\n")

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            write_atomic(target, "new\n")
        assert target.read_text() == "old\n"

    def test_bundle_bytes_unchanged(self, tmp_path):
        scenario = ChaosScenario(seed=3, n_events=60, outage_start=10, outage_len=5)
        run_config = ChaosRunConfig(metrics=synthetic_metrics(), fallback_metrics=None,
                                    period_s=0.25)
        report = scenario.to_campaign().run(
            CrossEndSimulator(synthetic_metrics(), period_s=0.25), 60, arq=ARQ
        )
        bundle = build_bundle(scenario, run_config, report)
        path = save_bundle(bundle, tmp_path / "bundles")
        assert path.name == f"chaos-{bundle['bundle_id']}.json"
        assert path.read_text() == json.dumps(bundle, indent=2, sort_keys=True) + "\n"
        assert [p.name for p in path.parent.iterdir()] == [path.name]


class TestLayering:
    """The format module stays below the loops that use it."""

    @staticmethod
    def imported_modules(module):
        src = Path(repro.__file__).parent / "sim" / f"{module}.py"
        tree = ast.parse(src.read_text())
        return {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        } | {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }

    def test_checkpoint_imports_neither_faults_nor_chaos(self):
        imported = self.imported_modules("checkpoint")
        assert not imported & {"repro.sim.faults", "repro.sim.chaos"}

    def test_supervise_does_not_import_chaos(self):
        assert "repro.sim.chaos" not in self.imported_modules("supervise")
