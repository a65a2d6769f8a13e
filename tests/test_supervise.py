"""Tests for the fleet-supervision tier: breakers, health, checkpoints.

Covers the :mod:`repro.sim.supervise` mechanisms end to end — the
deterministic link circuit breaker (unit trajectory + in-campaign
bit-identity across the fast and scalar runners), the digest-pinned
checkpoint documents (tamper and config-mismatch rejection), crash-safe
resume of campaigns, sweeps and chaos searches (bit-identical to the
uninterrupted run), the per-device health state machine with quarantine
and probation, and the fleet supervisor's scheduling view.  The
kill-and-resume integration test SIGKILLs a subprocess mid-campaign and
asserts the resumed run reproduces the reference report bit-for-bit.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.errors import CheckpointError, ConfigurationError
from repro.hw.arq import ARQConfig
from repro.sim.channel import GilbertElliottParams
from repro.sim.checkpoint import Checkpointer, load_checkpoint, save_checkpoint
from repro.sim.chaos import (
    ChaosRunConfig,
    ChaosSearchConfig,
    chaos_search,
    report_digest,
)
from repro.sim.evaluate import PartitionMetrics
from repro.sim.faults import (
    DELIVERED,
    DROPPED,
    BurstLoss,
    DecisionRecord,
    FaultCampaign,
    IntegrityConfig,
    LinkOutage,
    PayloadCorruption,
    SensorBrownout,
    reports_identical,
)
from repro.sim.parallel import ParallelConfig, sweep
from repro.sim.simulator import CrossEndSimulator
from repro.sim.supervise import (
    DEGRADED,
    HEALTH_STATES,
    HEALTHY,
    QUARANTINED,
    RECOVERING,
    BreakerConfig,
    DeviceHealth,
    FleetSupervisor,
    HealthColumns,
    HealthPolicy,
    LinkCircuitBreaker,
    wasted_radio_j,
)

ARQ = ARQConfig(max_retries=3, timeout_s=2e-3, backoff_factor=2.0)


def synthetic_metrics(**overrides) -> PartitionMetrics:
    """A tiny hand-built partition for supervision campaign tests."""
    values = dict(
        in_sensor=frozenset(),
        sensor_compute_j=1e-6,
        sensor_tx_j=1e-6,
        sensor_rx_j=1e-7,
        delay_front_s=1e-3,
        delay_link_s=2e-3,
        delay_back_s=1e-3,
        aggregator_cpu_j=1e-6,
        aggregator_radio_j=1e-6,
        crossing_bits_up=256,
        crossing_bits_down=0,
    )
    values.update(overrides)
    return PartitionMetrics(**values)


def flapping(seed=5):
    """Burst loss plus two hard outage windows, breaker-opening shape."""
    return FaultCampaign(
        [
            BurstLoss(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
            LinkOutage(start_event=60, n_events=40),
            LinkOutage(start_event=200, n_events=30),
        ],
        seed=seed,
    )


def simulator(metrics=None, seed=3):
    return CrossEndSimulator(
        metrics or synthetic_metrics(), period_s=0.25, seed=seed
    )


class TestBreakerConfig:
    def test_defaults_are_valid(self):
        cfg = BreakerConfig()
        assert cfg.failure_threshold == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"probe_backoff_events": 0},
            {"backoff_factor": 0.5},
            {"max_backoff_events": 2, "probe_backoff_events": 8},
            {"probe_retries": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            BreakerConfig(**kwargs)


class TestBreakerUnit:
    def test_opens_after_consecutive_failures_only(self):
        brk = LinkCircuitBreaker(BreakerConfig(failure_threshold=3))
        for k in range(2):
            assert brk.decide(k) == "allow"
            brk.record(k, delivered=False)
        # A delivery resets the consecutive-failure count.
        brk.record(2, delivered=True)
        assert brk.state == "closed"
        for k in range(3, 6):
            brk.record(k, delivered=False)
        assert brk.state == "open"
        assert brk.opens == 1

    def test_blocks_until_probe_then_backoff_grows(self):
        cfg = BreakerConfig(
            failure_threshold=1,
            probe_backoff_events=4,
            backoff_factor=2.0,
            max_backoff_events=8,
        )
        brk = LinkCircuitBreaker(cfg)
        brk.record(0, delivered=False)
        assert brk.state == "open"
        # Blocked until event 0 + 4.
        assert [brk.decide(k) for k in range(1, 4)] == ["block"] * 3
        assert brk.decide(4) == "probe"
        assert brk.state == "half_open"
        brk.record(4, delivered=False)  # failed probe: backoff 4 -> 8
        assert [brk.decide(k) for k in range(5, 12)] == ["block"] * 7
        assert brk.decide(12) == "probe"
        brk.record(12, delivered=False)  # capped at max_backoff_events = 8
        assert brk.decide(19) == "block"
        assert brk.decide(20) == "probe"
        brk.record(20, delivered=True)
        assert brk.state == "closed"
        assert brk.probe_successes == 1
        assert brk.probes == 3
        assert brk.blocked_events == 11

    def test_probe_arq_caps_budget_and_requires_bounded(self):
        brk = LinkCircuitBreaker(BreakerConfig(probe_retries=1))
        probe = brk.probe_arq(ARQ)
        assert probe.max_retries == 1
        assert probe.timeout_s == ARQ.timeout_s
        assert probe.backoff_factor == ARQ.backoff_factor
        # Capped by the campaign budget.
        wide = LinkCircuitBreaker(BreakerConfig(probe_retries=9))
        assert wide.probe_arq(ARQ).max_retries == ARQ.max_retries
        with pytest.raises(ConfigurationError):
            brk.probe_arq(ARQConfig(max_retries=None))  # unbounded

    def test_state_dict_roundtrip(self):
        brk = LinkCircuitBreaker(BreakerConfig(failure_threshold=1))
        brk.record(0, delivered=False)
        brk.decide(1)
        snap = brk.state_dict()
        clone = LinkCircuitBreaker(brk.config)
        clone.load_state(snap)
        assert clone.state_dict() == snap
        assert clone.state == brk.state
        # The clone continues the same trajectory.
        seq = [clone.decide(k) for k in range(2, 10)]
        brk2 = LinkCircuitBreaker(brk.config)
        brk2.load_state(snap)
        assert [brk2.decide(k) for k in range(2, 10)] == seq

    def test_reset_zeroes_counters(self):
        brk = LinkCircuitBreaker(BreakerConfig(failure_threshold=1))
        brk.record(0, delivered=False)
        brk.decide(1)
        brk.reset()
        assert brk.state == "closed"
        assert brk.blocked_events == 0 and brk.opens == 0


class TestCheckpointDocuments:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.json"
        state = {"cursor": 7, "x": ["a", 1, True]}
        save_checkpoint(path, "campaign", "key123", state)
        assert load_checkpoint(path, "campaign", "key123") == state

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.json", "campaign", "k")

    def test_not_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path, "campaign", "k")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, "sweep", "k", {"cursor": 1})
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path, "campaign", "k")

    def test_foreign_config_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, "campaign", "key-a", {"cursor": 1})
        with pytest.raises(CheckpointError, match="different run"):
            load_checkpoint(path, "campaign", "key-b")

    def test_tampered_state_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, "campaign", "k", {"cursor": 1})
        doc = json.loads(path.read_text())
        doc["state"]["cursor"] = 999  # edit without re-digesting
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(path, "campaign", "k")

    def test_unserialisable_state_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="canonical-JSON-safe"):
            save_checkpoint(tmp_path / "ck.json", "campaign", "k", {"f": object()})


class TestBreakerInCampaign:
    def run(self, fast, breaker=None, n_events=300, with_policy=True, seed=5):
        kwargs = {}
        if with_policy:
            kwargs = dict(
                policy=GracefulDegradationPolicy(
                    outage_threshold=3, recovery_hysteresis=8
                ),
                fallback_metrics=synthetic_metrics(
                    sensor_tx_j=2e-7, aggregator_radio_j=2e-7, crossing_bits_up=16
                ),
                cache=LastKnownGoodCache(),
            )
        return flapping(seed).run(
            simulator(), n_events, arq=ARQ, breaker=breaker, fast=fast, **kwargs
        )

    def test_requires_bounded_arq(self):
        with pytest.raises(ConfigurationError, match="bounded ARQConfig"):
            flapping().run(
                simulator(), 50, arq=None, breaker=LinkCircuitBreaker()
            )

    def test_fast_and_scalar_bit_identical_with_breaker(self):
        cfg = BreakerConfig(failure_threshold=3, probe_backoff_events=4)
        brk_fast, brk_scalar = LinkCircuitBreaker(cfg), LinkCircuitBreaker(cfg)
        fast = self.run(True, breaker=brk_fast)
        scalar = self.run(False, breaker=brk_scalar)
        assert reports_identical(fast, scalar)
        assert report_digest(fast) == report_digest(scalar)
        assert brk_fast.state_dict() == brk_scalar.state_dict()
        assert brk_fast.opens >= 1
        assert brk_fast.blocked_events > 0

    def test_breaker_reduces_retransmissions(self):
        baseline = self.run(True, breaker=None)
        brk = LinkCircuitBreaker(BreakerConfig(failure_threshold=3))
        braked = self.run(True, breaker=brk)
        assert braked.retransmissions < baseline.retransmissions
        assert wasted_radio_j(
            braked, synthetic_metrics()
        ) < wasted_radio_j(baseline, synthetic_metrics())
        # Availability is preserved: blocked events are served from cache.
        assert braked.availability >= baseline.availability

    def test_open_breaker_drives_degradation_policy(self):
        """Blocked events are drop signals: the policy must enter fallback."""
        policy = GracefulDegradationPolicy(
            outage_threshold=3, recovery_hysteresis=8
        )
        report = flapping().run(
            simulator(),
            300,
            arq=ARQ,
            breaker=LinkCircuitBreaker(BreakerConfig(failure_threshold=3)),
            policy=policy,
            fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7),
            cache=LastKnownGoodCache(),
            fast=True,
        )
        assert policy.transitions >= 2  # entered and left fallback
        assert report.fallback_events > 0
        blocked = [r for r in report.records if r.tries == 0 and r.index > 60]
        assert blocked, "the open breaker never blocked an event"

    def test_without_cache_blocked_events_drop(self):
        report = self.run(
            True,
            breaker=LinkCircuitBreaker(BreakerConfig(failure_threshold=3)),
            with_policy=False,
        )
        outage_records = report.records[60:100]
        assert any(
            r.status == DROPPED and r.tries == 0 for r in outage_records
        )


class _AbortAfterSave(Exception):
    """Control-flow marker of the interrupting checkpointers below."""


class _InterruptingCampaignCheckpointer(Checkpointer):
    """Campaign checkpointer that aborts the run after its Nth save."""

    def __init__(self, path, every, stop_after=1):
        super().__init__(path, every=every)
        self.stop_after = stop_after

    def save(self, *args, **kwargs):
        result = super().save(*args, **kwargs)
        if self.saves >= self.stop_after:
            raise _AbortAfterSave
        return result


class TestCampaignResume:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
    def test_interrupt_resume_bit_identical(self, tmp_path, fast):
        path = tmp_path / "campaign.json"

        def run(checkpoint=None, resume=False):
            return flapping().run(
                simulator(),
                300,
                arq=ARQ,
                policy=GracefulDegradationPolicy(
                    outage_threshold=3, recovery_hysteresis=8
                ),
                fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7),
                cache=LastKnownGoodCache(),
                breaker=LinkCircuitBreaker(BreakerConfig(failure_threshold=3)),
                fast=fast,
                checkpoint=checkpoint,
                resume=resume,
            )

        reference = run()
        with pytest.raises(_AbortAfterSave):
            run(_InterruptingCampaignCheckpointer(path, every=77))
        resumed = run(Checkpointer(path, every=77), resume=True)
        assert reports_identical(reference, resumed)
        assert report_digest(reference) == report_digest(resumed)

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
    def test_interrupt_resume_integrity_jitter(self, tmp_path, fast):
        """Resume restores the payload, jitter and loss-stream positions."""
        path = tmp_path / "campaign.json"
        jittered = CrossEndSimulator(
            synthetic_metrics(), period_s=0.25, jitter_sigma=0.3, seed=3
        )

        def run(checkpoint=None, resume=False):
            campaign = FaultCampaign(
                [
                    BurstLoss(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
                    PayloadCorruption(0.08, mode="bitflip"),
                    SensorBrownout(start_event=40, n_events=5),
                ],
                seed=9,
            )
            return campaign.run(
                jittered,
                200,
                arq=ARQ,
                cache=LastKnownGoodCache(),
                integrity=IntegrityConfig(values_per_payload=8),
                fast=fast,
                checkpoint=checkpoint,
                resume=resume,
            )

        reference = run()
        with pytest.raises(_AbortAfterSave):
            run(_InterruptingCampaignCheckpointer(path, every=70))
        resumed = run(Checkpointer(path, every=70), resume=True)
        assert report_digest(reference) == report_digest(resumed)

    @pytest.mark.parametrize(
        "fast,keys",
        [
            (True, {"a", "loss_remainder"}),
            (False, {"payload_rng", "jitter_rng", "seq_base"}),
        ],
        ids=["fast", "scalar"],
    )
    def test_checkpoint_extra_keys_per_runner(self, tmp_path, fast, keys):
        path = tmp_path / "campaign.json"
        flapping().run(
            simulator(), 100, arq=ARQ, fast=fast,
            checkpoint=Checkpointer(path, every=50),
        )
        assert set(json.loads(path.read_text())["state"]["extra"]) == keys

    def test_resume_needs_a_checkpointer(self):
        with pytest.raises(ConfigurationError, match="resume"):
            flapping().run(simulator(), 50, arq=ARQ, resume=True)

    def test_resume_rejects_different_campaign(self, tmp_path):
        path = tmp_path / "campaign.json"
        with pytest.raises(_AbortAfterSave):
            flapping(seed=5).run(
                simulator(),
                300,
                arq=ARQ,
                checkpoint=_InterruptingCampaignCheckpointer(path, every=100),
            )
        with pytest.raises(CheckpointError, match="different run"):
            flapping(seed=6).run(  # different campaign seed
                simulator(),
                300,
                arq=ARQ,
                checkpoint=Checkpointer(path, every=100),
                resume=True,
            )

    def test_checkpointer_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Checkpointer(tmp_path / "x.json", every=0)


def _square(x=0, y=0, weight=1.0):
    """Module-level sweep target (workers import it by qualified name)."""
    return weight * (x * x + y)


class TestSweepResume:
    GRID = {"x": [0, 1, 2, 3], "y": [1, 2]}

    def test_checkpointed_sweep_matches_plain(self, tmp_path):
        plain = sweep(
            _square, self.GRID, config=ParallelConfig(backend="serial"),
            shared={"weight": 2.0},
        )
        ck = Checkpointer(tmp_path / "sweep.json", every=3)
        checkpointed = sweep(
            _square, self.GRID, config=ParallelConfig(backend="serial"),
            shared={"weight": 2.0}, checkpoint=ck,
        )
        assert checkpointed == plain
        assert ck.path.exists()

    def test_resume_completes_partial_sweep(self, tmp_path):
        path = tmp_path / "sweep.json"
        reference = sweep(
            _square, self.GRID, config=ParallelConfig(backend="serial")
        )
        full = Checkpointer(path, every=2)
        sweep(_square, self.GRID, config=ParallelConfig(backend="serial"),
              checkpoint=full)
        # Truncate the done-map to simulate a crash after 3 combos.
        doc = json.loads(path.read_text())
        done = doc["state"]["done"]
        kept = {k: done[k] for k in sorted(done, key=int)[:3]}
        save_checkpoint(path, "sweep", doc["config_key"], {"done": kept})
        resumed = sweep(
            _square, self.GRID, config=ParallelConfig(backend="serial"),
            checkpoint=Checkpointer(path, every=2), resume=True,
        )
        assert resumed == reference

    def test_resume_rejects_different_grid(self, tmp_path):
        path = tmp_path / "sweep.json"
        sweep(_square, self.GRID, config=ParallelConfig(backend="serial"),
              checkpoint=Checkpointer(path, every=2))
        with pytest.raises(CheckpointError, match="different run"):
            sweep(
                _square, {"x": [9], "y": [1]},
                config=ParallelConfig(backend="serial"),
                checkpoint=Checkpointer(path, every=2), resume=True,
            )


class _InterruptingChaosCheckpointer(Checkpointer):
    """Chaos checkpointer that aborts the search after its first save."""

    def save(self, *args, **kwargs):
        result = super().save(*args, **kwargs)
        raise _AbortAfterSave from None
        return result


class TestChaosResume:
    def make_run_config(self):
        return ChaosRunConfig(
            metrics=synthetic_metrics(),
            fallback_metrics=synthetic_metrics(
                sensor_tx_j=2e-7, crossing_bits_up=16
            ),
            period_s=0.25,
            sim_seed=7,
        )

    def test_interrupt_resume_matches_uninterrupted(self, tmp_path):
        run_config = self.make_run_config()
        search = ChaosSearchConfig(population=3, generations=2, seed=1, fast=True)
        reference = chaos_search(run_config, search=search, n_events=120)
        path = tmp_path / "chaos.json"
        with pytest.raises(_AbortAfterSave):
            chaos_search(
                run_config, search=search, n_events=120,
                checkpoint=_InterruptingChaosCheckpointer(path, every=2),
            )
        resumed = chaos_search(
            run_config, search=search, n_events=120,
            checkpoint=Checkpointer(path, every=2), resume=True,
        )
        assert resumed.evaluations == reference.evaluations
        assert resumed.worst.scenario.key == reference.worst.scenario.key
        assert resumed.worst.report_digest == reference.worst.report_digest
        assert len(resumed.frontier) == len(reference.frontier)

    def test_resume_rejects_different_search_shape(self, tmp_path):
        run_config = self.make_run_config()
        path = tmp_path / "chaos.json"
        chaos_search(
            run_config,
            search=ChaosSearchConfig(population=3, generations=1, seed=1, fast=True),
            n_events=120,
            checkpoint=Checkpointer(path, every=2),
        )
        with pytest.raises(CheckpointError, match="different run"):
            chaos_search(
                run_config,
                search=ChaosSearchConfig(
                    population=4, generations=1, seed=1, fast=True
                ),
                n_events=120,
                checkpoint=Checkpointer(path, every=2),
                resume=True,
            )


def _round(availability, n_events=100, sensor_j=1e-4):
    """A minimal campaign-round stand-in for the health state machine."""
    delivered = int(round(availability * n_events))
    return SimpleNamespace(
        availability=availability,
        n_events=n_events,
        n_delivered=delivered,
        n_degraded=0,
        n_dropped=n_events - delivered,
        sensor_energy_j=sensor_j,
    )


class TestHealthStateMachine:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            HealthPolicy(quarantine_availability=1.5)
        with pytest.raises(ConfigurationError):
            HealthPolicy(degraded_availability=0.5, quarantine_availability=0.9)
        with pytest.raises(ConfigurationError):
            HealthPolicy(quarantine_rounds=0)

    def test_poor_rounds_degrade_then_quarantine(self):
        dev = DeviceHealth("n0", HealthPolicy(quarantine_rounds=2))
        assert dev.observe(_round(0.95)) == DEGRADED
        assert dev.observe(_round(0.95)) == QUARANTINED
        assert dev.quarantines == 1
        assert not dev.schedulable

    def test_bad_round_quarantines_immediately(self):
        dev = DeviceHealth("n0")
        assert dev.observe(_round(0.5)) == QUARANTINED

    def test_good_round_heals_a_degraded_device(self):
        dev = DeviceHealth("n0", HealthPolicy(quarantine_rounds=3))
        dev.observe(_round(0.95))
        assert dev.state == DEGRADED
        assert dev.observe(_round(1.0)) == HEALTHY
        # The streak was reset: two more poor rounds only degrade.
        dev.observe(_round(0.95))
        dev.observe(_round(0.95))
        assert dev.state == DEGRADED

    def test_quarantine_rest_then_probation(self):
        policy = HealthPolicy(recovery_rounds=2, probation_rounds=3)
        dev = DeviceHealth("n0", policy)
        dev.observe(_round(0.5))
        assert dev.state == QUARANTINED
        with pytest.raises(ConfigurationError, match="quarantined"):
            dev.observe(_round(1.0))
        assert dev.tick() == QUARANTINED
        assert dev.tick() == RECOVERING
        with pytest.raises(ConfigurationError, match="not quarantined"):
            dev.tick()
        assert dev.observe(_round(1.0)) == RECOVERING
        assert dev.observe(_round(1.0)) == RECOVERING
        assert dev.observe(_round(1.0)) == HEALTHY

    def test_recovering_relapse_requarantines(self):
        dev = DeviceHealth("n0", HealthPolicy(recovery_rounds=1))
        dev.observe(_round(0.5))
        dev.tick()
        assert dev.state == RECOVERING
        assert dev.observe(_round(0.95)) == QUARANTINED
        assert dev.quarantines == 2

    def test_per_state_accounting(self):
        dev = DeviceHealth("n0", HealthPolicy(quarantine_rounds=2))
        dev.observe(_round(1.0, n_events=50, sensor_j=1e-3))
        dev.observe(_round(0.95, n_events=50))
        dev.observe(_round(0.95, n_events=50))  # observed while DEGRADED
        assert dev.accounting[HEALTHY]["rounds"] == 2
        assert dev.accounting[HEALTHY]["sensor_j"] == pytest.approx(1.1e-3)
        assert dev.accounting[DEGRADED]["rounds"] == 1
        dev.tick()
        assert dev.accounting[QUARANTINED]["rounds"] == 1
        assert set(dev.accounting) == set(HEALTH_STATES)

    def test_state_dict_roundtrip(self):
        dev = DeviceHealth("n0")
        dev.observe(_round(0.5))
        dev.tick()
        snap = dev.state_dict()
        clone = DeviceHealth("n0")
        clone.load_state(snap)
        assert clone.state_dict() == snap
        assert clone.state == dev.state
        with pytest.raises(CheckpointError):
            clone.load_state({**snap, "state": "zombie"})


class TestFleetSupervisor:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetSupervisor([])
        with pytest.raises(ConfigurationError):
            FleetSupervisor(["a", "a"])
        with pytest.raises(ConfigurationError):
            FleetSupervisor(["a"]).device("ghost")

    def test_round_flow_quarantines_and_recovers(self):
        fleet = FleetSupervisor(
            ["a", "b"], HealthPolicy(recovery_rounds=2, probation_rounds=1)
        )
        fleet.observe_round({"a": _round(1.0), "b": _round(0.5)})
        assert fleet.states() == {"a": HEALTHY, "b": QUARANTINED}
        assert fleet.schedulable() == ["a"]
        # Quarantined devices are ticked, not observed.
        fleet.observe_round({"a": _round(1.0)})
        fleet.observe_round({"a": _round(1.0)})
        assert fleet.states()["b"] == RECOVERING
        fleet.observe_round({"a": _round(1.0), "b": _round(1.0)})
        assert fleet.states()["b"] == HEALTHY
        assert fleet.state_counts() == {
            HEALTHY: 2, DEGRADED: 0, QUARANTINED: 0, RECOVERING: 0,
        }

    def test_filter_nodes_drops_quarantined_keeps_unknown(self):
        fleet = FleetSupervisor(["a", "b"])
        fleet.observe_round({"a": _round(1.0), "b": _round(0.5)})
        nodes = [
            SimpleNamespace(name="a"),
            SimpleNamespace(name="b"),
            SimpleNamespace(name="infrastructure"),
        ]
        kept = fleet.filter_nodes(nodes)
        assert [n.name for n in kept] == ["a", "infrastructure"]

    def test_state_dict_roundtrip_and_missing_device(self):
        fleet = FleetSupervisor(["a", "b"])
        fleet.observe_round({"a": _round(0.95), "b": _round(1.0)})
        snap = fleet.state_dict()
        clone = FleetSupervisor(["a", "b"])
        clone.load_state(snap)
        assert clone.state_dict() == snap
        with pytest.raises(CheckpointError, match="misses"):
            FleetSupervisor(["a", "b", "c"]).load_state(snap)


@st.composite
def _health_rounds(draw):
    """A policy, an event count and rounds of (delivered, up) columns.

    Thresholds include the edges (``quarantine_rounds=1``, ``degraded ==
    quarantine``, 0 and 1); ``up`` is an arbitrary per-round
    battery-alive column, so devices drop out (and back in) while
    healthy, quarantined or recovering.
    """
    quarantine = draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0))
    degraded = draw(st.just(quarantine) | st.just(1.0) | st.floats(quarantine, 1.0))
    policy = HealthPolicy(
        degraded_availability=degraded,
        quarantine_availability=quarantine,
        quarantine_rounds=draw(st.integers(1, 4)),
        recovery_rounds=draw(st.integers(1, 4)),
        probation_rounds=draw(st.integers(1, 4)),
    )
    n = draw(st.integers(1, 6))
    events = draw(st.integers(1, 5))
    column = st.lists(st.integers(0, events), min_size=n, max_size=n)
    up = st.lists(st.booleans(), min_size=n, max_size=n)
    rounds = draw(st.lists(st.tuples(column, up), min_size=1, max_size=14))
    return policy, events, rounds


class TestHealthColumns:
    """The column machine against one :class:`DeviceHealth` per device."""

    @settings(max_examples=300, deadline=None)
    @given(_health_rounds())
    def test_columns_match_device_health_every_round(self, case):
        policy, events, rounds = case
        n = len(rounds[0][0])
        columns = HealthColumns(n, policy)
        devices = [DeviceHealth(f"d{i}", policy) for i in range(n)]
        for delivered, up in rounds:
            sched = np.asarray(up) & columns.schedulable
            assert sched.tolist() == [
                u and d.schedulable for u, d in zip(up, devices)
            ]
            resting = [d for d in devices if d.state == QUARANTINED]
            for i in np.flatnonzero(sched):
                devices[i].observe_counts(
                    events=events,
                    delivered=delivered[i],
                    degraded=0,
                    dropped=events - delivered[i],
                    sensor_j=0.0,
                    availability=delivered[i] / float(events),
                )
            for dev in resting:
                dev.tick()
            columns.observe_round(sched, events, np.asarray(delivered))
            assert columns.states() == [d.state for d in devices]
            snaps = [d.state_dict() for d in devices]
            for key in ("bad_streak", "ok_streak", "rest", "quarantines"):
                assert getattr(columns, key).tolist() == [s[key] for s in snaps]

    def test_all_quarantined_round_only_rests(self):
        policy = HealthPolicy(quarantine_rounds=1, recovery_rounds=2)
        columns = HealthColumns(3, policy)
        columns.observe_round(np.ones(3, dtype=bool), 4, np.zeros(3))
        assert columns.states() == [QUARANTINED] * 3
        assert not columns.schedulable.any()
        columns.observe_round(columns.schedulable, 4, np.zeros(3))
        assert columns.states() == [QUARANTINED] * 3
        columns.observe_round(columns.schedulable, 4, np.zeros(3))
        assert columns.states() == [RECOVERING] * 3
        assert columns.quarantines.tolist() == [1, 1, 1]

    def test_scheduling_a_quarantined_device_is_rejected(self):
        columns = HealthColumns(2)
        columns.observe_round(np.ones(2, dtype=bool), 4, np.array([0, 4]))
        assert columns.states() == [QUARANTINED, HEALTHY]
        with pytest.raises(ConfigurationError, match="quarantined"):
            columns.observe_round(np.ones(2, dtype=bool), 4, np.array([4, 4]))


class TestWastedRadio:
    def test_counts_only_fruitless_tries(self):
        metrics = synthetic_metrics()
        fallback = synthetic_metrics(
            sensor_tx_j=2e-7, sensor_rx_j=1e-8, aggregator_radio_j=2e-7
        )
        records = [
            DecisionRecord(0, DELIVERED, 3, 0.01, False, 0, False),  # not wasted
            DecisionRecord(1, DROPPED, 4, float("nan"), False, 0, False),
            DecisionRecord(2, "degraded", 4, 0.01, True, 1, False),  # fallback
            DecisionRecord(3, DROPPED, 0, float("nan"), False, 0, False),  # blocked
        ]
        report = SimpleNamespace(records=records)
        per_try = (
            metrics.sensor_tx_j + metrics.sensor_rx_j + metrics.aggregator_radio_j
        )
        fb_try = (
            fallback.sensor_tx_j + fallback.sensor_rx_j + fallback.aggregator_radio_j
        )
        assert wasted_radio_j(report, metrics, fallback) == pytest.approx(
            4 * per_try + 4 * fb_try
        )
        # Without fallback metrics every record uses the primary figures.
        assert wasted_radio_j(report, metrics) == pytest.approx(8 * per_try)


_KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys
    sys.path.insert(0, {src!r})
    sys.path.insert(0, {testdir!r})
    from test_supervise import ARQ, flapping, simulator, synthetic_metrics
    from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
    from repro.sim.checkpoint import Checkpointer
    from repro.sim.supervise import BreakerConfig, LinkCircuitBreaker

    class KillingCheckpointer(Checkpointer):
        def save(self, *args, **kwargs):
            super().save(*args, **kwargs)
            if self.saves >= 2:
                os.kill(os.getpid(), signal.SIGKILL)

    flapping().run(
        simulator(), 300, arq=ARQ,
        policy=GracefulDegradationPolicy(outage_threshold=3, recovery_hysteresis=8),
        fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7),
        cache=LastKnownGoodCache(),
        breaker=LinkCircuitBreaker(BreakerConfig(failure_threshold=3)),
        fast={fast!r},
        checkpoint=KillingCheckpointer({path!r}, every=60),
    )
    raise SystemExit("the campaign survived the kill switch")
    """
)


class TestKillAndResume:
    """SIGKILL a campaign subprocess mid-run, resume, assert bit-identity."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path, fast):
        path = str(tmp_path / "killed.json")
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = _KILL_SCRIPT.format(
            src=src,
            testdir=str(Path(__file__).resolve().parent),
            path=path,
            fast=fast,
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert os.path.exists(path), "no checkpoint survived the kill"

        def run(checkpoint=None, resume=False):
            return flapping().run(
                simulator(),
                300,
                arq=ARQ,
                policy=GracefulDegradationPolicy(
                    outage_threshold=3, recovery_hysteresis=8
                ),
                fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7),
                cache=LastKnownGoodCache(),
                breaker=LinkCircuitBreaker(BreakerConfig(failure_threshold=3)),
                fast=fast,
                checkpoint=checkpoint,
                resume=resume,
            )

        resumed = run(Checkpointer(path, every=60), resume=True)
        reference = run()
        assert reports_identical(reference, resumed)
        assert report_digest(reference) == report_digest(resumed)
