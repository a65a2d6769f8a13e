"""Tests for the adversarial chaos orchestrator and bit-exact replay bundles."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.generator import AutomaticXProGenerator
from repro.errors import (
    ChaosRegressionError,
    ConfigurationError,
    ReplayMismatchError,
)
from repro.eval.chaos import (
    SUMMARY_SCHEMA,
    chaos_eval,
    check_chaos_regression,
    compare_chaos_summaries,
    fixed_mix_scenarios,
    load_chaos_summary,
    write_chaos_summary,
)
from repro.graph.cuts import sensor_cut
from repro.hw.wireless import WirelessLink
from repro.sim.chaos import (
    ChaosBounds,
    ChaosDriver,
    ChaosJudge,
    ChaosOutcome,
    ChaosRunConfig,
    ChaosScenario,
    ChaosScore,
    ChaosSearchConfig,
    ChaosStrategist,
    assert_replay,
    build_bundle,
    chaos_search,
    load_bundle,
    pareto_worst,
    replay_bundle,
    report_digest,
    save_bundle,
)
from repro.sim.checkpoint import canonical_json, stable_digest
from repro.sim.evaluate import evaluate_partition
from repro.sim.faults import (
    AggregatorStall,
    BurstLoss,
    LinkOutage,
    PayloadCorruption,
    SensorBrownout,
)

from .test_supervise import synthetic_metrics
from .test_wire_fastpath import live_twin

# Pinned digests: these constants were computed once and hard-coded, so the
# suite genuinely asserts stability across interpreter runs and machines
# (Python's builtin hash() is salted per run and would fail this).
PINNED_SCENARIO = dict(
    seed=1234, n_events=500, bitflip_rate=0.125, outage_start=100, outage_len=50
)
PINNED_KEY = "daa0e7c3016a63a2"
PINNED_FULL = "daa0e7c3016a63a23b9c6ae153b1f908a9b0cc86dd40213f7d3dd937d1ac7b4e"


@pytest.fixture(scope="module")
def chaos_cfg(request):
    """A tiny-but-real ChaosRunConfig (cross-end primary, in-sensor fallback)."""
    topo = request.getfixturevalue("tiny_topology")
    lib = request.getfixturevalue("energy_lib_90")
    cpu = request.getfixturevalue("cpu_model")
    link = WirelessLink("model2")
    primary = AutomaticXProGenerator(topo, lib, link, cpu).generate().metrics
    fallback = evaluate_partition(topo, sensor_cut(topo), lib, link, cpu)
    return ChaosRunConfig(metrics=primary, fallback_metrics=fallback, period_s=0.25)


@pytest.fixture
def live_source(monkeypatch):
    """Makes every scenario build its campaign from the trivial fault
    subclasses, so drivers and replays run on the live (scalar) source."""
    to_campaign = ChaosScenario.to_campaign

    def live(self):
        campaign = live_twin(to_campaign(self))
        assert not campaign.supports_fast()
        return campaign

    def use():
        monkeypatch.setattr(ChaosScenario, "to_campaign", live)

    return use


class TestCanonicalDigests:
    def test_key_order_invariance(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert stable_digest({"b": 1, "a": [1.5, 0.1]}) == stable_digest(
            {"a": [1.5, 0.1], "b": 1}
        )

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_pinned_digests(self):
        scenario = ChaosScenario(**PINNED_SCENARIO)
        assert scenario.key == PINNED_KEY
        assert stable_digest(scenario.to_dict()) == PINNED_FULL
        assert (
            stable_digest({"b": 1, "a": [1.5, 0.1]})
            == "e5b95b61ee7aa1a2a25fe281835eaa372c54743b30edf8f71b80359dc1ae345c"
        )

    def test_key_stable_across_interpreter_runs(self):
        """A fresh interpreter (fresh hash salt) derives the same key."""
        src_root = Path(repro.__file__).resolve().parents[1]
        code = (
            "from repro.sim.chaos import ChaosScenario; "
            f"print(ChaosScenario(**{PINNED_SCENARIO!r}).key)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src_root)},
        )
        assert out.stdout.strip() == PINNED_KEY


class TestScenario:
    def test_round_trip(self):
        scenario = ChaosScenario(seed=9, n_events=300, bitflip_rate=0.2, stall_len=12)
        rebuilt = ChaosScenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.key == scenario.key

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario.from_dict({"seed": 1, "n_events": 10, "bogus": 3})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario(seed=1, n_events=0)
        with pytest.raises(ConfigurationError):
            ChaosScenario(seed=1, n_events=10, outage_len=-1)
        with pytest.raises(ConfigurationError):
            ChaosScenario(seed=1, n_events=10, stall_ms=-0.5)

    def test_campaign_composition(self):
        """Corruptors are always armed; windows appear only when non-empty."""
        bare = ChaosScenario(seed=1, n_events=50).to_campaign()
        assert [type(f) for f in bare.faults] == [
            BurstLoss,
            PayloadCorruption,
            PayloadCorruption,
        ]
        full = ChaosScenario(
            seed=1,
            n_events=50,
            outage_len=5,
            brownout_len=3,
            stall_len=2,
        ).to_campaign()
        assert [type(f) for f in full.faults] == [
            BurstLoss,
            PayloadCorruption,
            PayloadCorruption,
            LinkOutage,
            SensorBrownout,
            AggregatorStall,
        ]


class TestStrategist:
    def test_deterministic_in_seed(self):
        bounds = ChaosBounds(n_events=200)
        a = ChaosStrategist(bounds, seed=42).initial_population(6)
        b = ChaosStrategist(bounds, seed=42).initial_population(6)
        assert a == b
        c = ChaosStrategist(bounds, seed=43).initial_population(6)
        assert a != c

    def test_population_respects_bounds(self):
        bounds = ChaosBounds(n_events=200)
        strategist = ChaosStrategist(bounds, seed=0)
        for s in strategist.initial_population(50):
            assert s.n_events == 200
            assert bounds.min_burst_p_gb <= s.burst_p_gb <= bounds.max_burst_p_gb
            assert bounds.min_burst_p_bg <= s.burst_p_bg <= bounds.max_burst_p_bg
            assert 0.0 <= s.burst_loss_good <= bounds.max_burst_loss_good
            assert (
                bounds.min_burst_loss_bad
                <= s.burst_loss_bad
                <= bounds.max_burst_loss_bad
            )
            assert 0.0 <= s.erasure_rate <= bounds.max_erasure_rate
            assert 0.0 <= s.bitflip_rate <= bounds.max_bitflip_rate
            assert 1 <= s.max_bit_flips <= bounds.max_bit_flips
            assert 0 <= s.outage_len <= bounds.max_outage_len
            assert 0 <= s.brownout_len <= bounds.max_brownout_len
            assert 0 <= s.stall_len <= bounds.max_stall_len
            assert 0.0 <= s.stall_ms <= bounds.max_stall_ms
            # every scenario must build a valid campaign
            s.to_campaign()

    def test_mutation_stays_in_bounds_and_reseeds(self):
        bounds = ChaosBounds(n_events=200)
        strategist = ChaosStrategist(bounds, seed=7)
        parent = strategist.random_scenario()
        for _ in range(30):
            child = strategist.mutate(parent)
            assert child.seed != parent.seed
            assert 0 <= child.outage_len <= bounds.max_outage_len
            assert 0.0 <= child.bitflip_rate <= bounds.max_bitflip_rate
            child.to_campaign()

    def test_evolve_shapes(self):
        bounds = ChaosBounds(n_events=100)
        strategist = ChaosStrategist(bounds, seed=1, elite=2)
        assert len(strategist.evolve([], 5)) == 5
        parents = strategist.initial_population(4)
        assert len(strategist.evolve(parents, 7)) == 7

    def test_invalid_parameters(self):
        bounds = ChaosBounds(n_events=100)
        with pytest.raises(ConfigurationError):
            ChaosStrategist(bounds, elite=0)
        with pytest.raises(ConfigurationError):
            ChaosStrategist(bounds, fresh_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ChaosStrategist(bounds, mutation_rate=0.0)
        with pytest.raises(ConfigurationError):
            ChaosBounds(n_events=0)
        with pytest.raises(ConfigurationError):
            ChaosBounds(n_events=100, max_outage_frac=1.5)


def _outcome(unavail, silent, tail=0.0, battery=0.0, badness=None):
    """Synthetic outcome at given Pareto coordinates (no report needed)."""
    score = ChaosScore(
        unavailability=unavail,
        silent_corruption=silent,
        latency_tail=tail,
        battery_overhead=battery,
        degraded_rate=0.0,
        badness=badness if badness is not None else unavail + silent,
    )
    scenario = ChaosScenario(seed=int(1e6 * (unavail + silent + tail)), n_events=10)
    return ChaosOutcome(
        scenario=scenario, score=score, report=None, report_digest=None, generation=0
    )


class TestJudgeAndPareto:
    def test_judge_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosJudge(period_s=0.0, clean_sensor_j=1.0)
        with pytest.raises(ConfigurationError):
            ChaosJudge(period_s=1.0, clean_sensor_j=0.0)

    def test_diverged_score_dominates(self):
        judge = ChaosJudge(period_s=0.25, clean_sensor_j=1e-3)
        score = judge.diverged_score()
        assert score.diverged
        assert score.badness == ChaosJudge.DIVERGED_BADNESS
        assert score.unavailability == 1.0

    def test_pareto_worst_filters_dominated(self):
        dominated = _outcome(0.1, 0.1)
        dominant = _outcome(0.2, 0.2)
        incomparable = _outcome(0.05, 0.9)
        frontier = pareto_worst([dominated, dominant, incomparable])
        assert dominant in frontier
        assert incomparable in frontier
        assert dominated not in frontier

    def test_pareto_worst_dedups_identical_coordinates(self):
        a = _outcome(0.3, 0.3)
        b = _outcome(0.3, 0.3)
        frontier = pareto_worst([a, b])
        assert frontier == [a]

    def test_search_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosSearchConfig(population=0)
        with pytest.raises(ConfigurationError):
            ChaosSearchConfig(generations=0)


class TestRunConfig:
    def test_round_trip(self, chaos_cfg):
        rebuilt = ChaosRunConfig.from_dict(chaos_cfg.to_dict())
        assert rebuilt.to_dict() == chaos_cfg.to_dict()
        assert rebuilt.metrics == chaos_cfg.metrics
        assert rebuilt.fallback_metrics == chaos_cfg.fallback_metrics

    def test_unbounded_arq_rejected(self, chaos_cfg):
        from repro.hw.arq import ARQConfig

        with pytest.raises(ConfigurationError):
            ChaosRunConfig(
                metrics=chaos_cfg.metrics,
                fallback_metrics=chaos_cfg.fallback_metrics,
                period_s=0.25,
                arq=ARQConfig(max_retries=None, timeout_s=2e-3),
            )

    def test_json_serialisable(self, chaos_cfg):
        canonical_json(chaos_cfg.to_dict())  # must not raise


class TestDriverAndReplay:
    def test_fast_and_scalar_runners_bit_identical(self, chaos_cfg, live_source):
        driver = ChaosDriver(chaos_cfg)
        scenarios = list(fixed_mix_scenarios(200, seed=11).values())
        fast = [report_digest(driver.run(s)) for s in scenarios]
        live_source()
        assert [report_digest(driver.run(s)) for s in scenarios] == fast

    def test_bundle_round_trip_and_replay(self, chaos_cfg, tmp_path, live_source):
        scenario = fixed_mix_scenarios(200, seed=11)["integrity"]
        report = ChaosDriver(chaos_cfg).run(scenario)
        bundle = build_bundle(scenario, chaos_cfg, report)
        path = save_bundle(bundle, tmp_path)
        assert path.name == f"chaos-{bundle['bundle_id']}.json"
        loaded = load_bundle(path)
        assert loaded == bundle
        assert assert_replay(loaded).matches
        live_source()
        assert replay_bundle(loaded).matches

    def test_tampered_bundle_id_rejected(self, chaos_cfg, tmp_path):
        scenario = ChaosScenario(seed=3, n_events=100)
        report = ChaosDriver(chaos_cfg).run(scenario)
        bundle = build_bundle(scenario, chaos_cfg, report)
        bundle["bundle_id"] = "0" * 16
        path = tmp_path / "tampered-id.json"
        path.write_text(json.dumps(bundle))
        with pytest.raises(ConfigurationError):
            load_bundle(path)

    def test_tampered_scenario_rejected(self, chaos_cfg, tmp_path):
        scenario = ChaosScenario(seed=3, n_events=100)
        report = ChaosDriver(chaos_cfg).run(scenario)
        bundle = build_bundle(scenario, chaos_cfg, report)
        bundle["scenario"]["bitflip_rate"] = 0.999  # id no longer matches
        path = tmp_path / "tampered-scenario.json"
        path.write_text(json.dumps(bundle))
        with pytest.raises(ConfigurationError):
            load_bundle(path)

    def test_tampered_expected_digest_raises_mismatch(self, chaos_cfg):
        scenario = ChaosScenario(seed=3, n_events=100)
        report = ChaosDriver(chaos_cfg).run(scenario)
        bundle = build_bundle(scenario, chaos_cfg, report)
        bundle["expected"]["report_digest"] = "deadbeef" * 8
        with pytest.raises(ReplayMismatchError):
            assert_replay(bundle)
        assert not replay_bundle(bundle).matches

    def test_malformed_bundles_rejected(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ConfigurationError):
            load_bundle(missing)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_bundle(bad_json)
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ConfigurationError):
            load_bundle(wrong_schema)


#: ``(bundle_id, sha256 of the saved file)`` of :func:`golden_bundle`.
GOLDEN_BUNDLE = (
    "c913e66e8e21f500",
    "786f59fd995344758441645d232b4a5d5e2b2d4917f4cc3f8689359e13be7a8f",
)


def golden_bundle():
    """One scored bundle of a fixed scenario that arms every fault type."""
    run_config = ChaosRunConfig(
        metrics=synthetic_metrics(),
        fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7, crossing_bits_up=16),
        period_s=0.25,
        jitter_sigma=0.2,
        sim_seed=7,
    )
    scenario = ChaosScenario(
        seed=21,
        n_events=120,
        erasure_rate=0.02,
        bitflip_rate=0.1,
        outage_start=30,
        outage_len=12,
        brownout_start=70,
        brownout_len=5,
        stall_start=90,
        stall_len=10,
        stall_ms=3.0,
    )
    report = ChaosDriver(run_config).run(scenario)
    judge = ChaosJudge(
        period_s=run_config.period_s,
        clean_sensor_j=run_config.metrics.sensor_total_j,
    )
    return build_bundle(scenario, run_config, report, judge.score(report))


class TestBundleGolden:
    """Pins the ``xpro-chaos-bundle-v1`` bytes: bundles already on disk
    must keep replaying, so the literals must never be edited to make a
    change pass."""

    def test_bundle_bytes(self, tmp_path):
        bundle = golden_bundle()
        path = save_bundle(bundle, tmp_path)
        assert path.name == f"chaos-{GOLDEN_BUNDLE[0]}.json"
        assert (
            bundle["bundle_id"],
            hashlib.sha256(path.read_bytes()).hexdigest(),
        ) == GOLDEN_BUNDLE
        assert assert_replay(load_bundle(path)).matches


class TestSearchAcceptance:
    SEARCH = ChaosSearchConfig(population=4, generations=2, seed=11)

    def test_strategist_beats_every_fixed_mix(self, chaos_cfg, tmp_path, live_source):
        """The paper-level acceptance: the adversarial search finds a mix
        strictly worse (on availability or silent corruption) than every
        fixed seeded mix, and its worst bundle replays bit-identically on
        both fault sources."""
        summary = chaos_eval(
            chaos_cfg,
            n_events=160,
            search=self.SEARCH,
            seed=11,
            bundle_dir=tmp_path,
        )
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["strictly_worse_than_fixed"] is True
        assert summary["replay"] is not None
        assert summary["replay"]["bit_identical"] is True
        assert summary["bundle_paths"]
        # every emitted bundle must load and replay bit-exactly
        for path in summary["bundle_paths"]:
            assert_replay(load_bundle(path))
        worst = ChaosScenario.from_dict(summary["worst"]["scenario"])
        worst_bundle = build_bundle(
            worst, chaos_cfg, ChaosDriver(chaos_cfg).run(worst)
        )
        assert worst_bundle["bundle_id"] == summary["replay"]["bundle_id"]
        live_source()
        live = assert_replay(worst_bundle)
        assert live.digest == summary["replay"]["report_digest"]

    def test_search_is_deterministic(self, chaos_cfg):
        kwargs = dict(search=self.SEARCH, n_events=160)
        a = chaos_search(chaos_cfg, **kwargs)
        b = chaos_search(chaos_cfg, **kwargs)
        assert a.worst.scenario.key == b.worst.scenario.key
        assert a.worst.report_digest == b.worst.report_digest
        assert [o.scenario.key for o in a.outcomes] == [
            o.scenario.key for o in b.outcomes
        ]
        assert a.evaluations == b.evaluations

    def test_memo_skips_duplicate_scenarios(self, chaos_cfg):
        result = chaos_search(chaos_cfg, search=self.SEARCH, n_events=160)
        keys = [o.scenario.key for o in result.outcomes]
        assert len(keys) == len(set(keys))
        assert result.evaluations == len(result.outcomes)


class TestRegressionGate:
    def _summary(self, unavail=0.2, silent=0.1, badness=0.5, identical=True):
        return {
            "schema": SUMMARY_SCHEMA,
            "axes_max": {
                "unavailability": unavail,
                "silent_corruption": silent,
                "latency_tail": 1.0,
                "battery_overhead": 0.05,
            },
            "worst": {"badness": badness},
            "replay": {
                "bundle_id": "0" * 16,
                "report_digest": "a",
                "bit_identical": identical,
            },
        }

    def test_gate_passes_against_itself(self):
        summary = self._summary()
        assert compare_chaos_summaries(summary, summary) == []
        check_chaos_regression(summary, summary)  # must not raise

    def test_gate_fails_on_worse_axis(self):
        baseline = self._summary(unavail=0.1)
        fresh = self._summary(unavail=0.5)
        failures = compare_chaos_summaries(fresh, baseline)
        assert any("unavailability" in f for f in failures)
        with pytest.raises(ChaosRegressionError):
            check_chaos_regression(fresh, baseline)

    def test_gate_fails_on_worse_badness(self):
        baseline = self._summary(badness=0.2)
        fresh = self._summary(badness=1.0)
        assert any(
            "badness" in f for f in compare_chaos_summaries(fresh, baseline)
        )

    def test_gate_fails_on_replay_divergence(self):
        baseline = self._summary()
        fresh = self._summary(identical=False)
        assert any("replay" in f for f in compare_chaos_summaries(fresh, baseline))

    def test_improvements_pass(self):
        baseline = self._summary(unavail=0.5, badness=1.0)
        fresh = self._summary(unavail=0.1, badness=0.2)
        assert compare_chaos_summaries(fresh, baseline) == []

    def test_negative_threshold_rejected(self):
        summary = self._summary()
        with pytest.raises(ConfigurationError):
            compare_chaos_summaries(summary, summary, threshold=-0.1)

    def test_summary_write_load_round_trip(self, tmp_path):
        summary = self._summary()
        path = write_chaos_summary(summary, tmp_path / "sub" / "chaos.json")
        assert load_chaos_summary(path) == summary
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other"}))
        with pytest.raises(ConfigurationError):
            load_chaos_summary(bad)
        with pytest.raises(ConfigurationError):
            load_chaos_summary(tmp_path / "absent.json")
