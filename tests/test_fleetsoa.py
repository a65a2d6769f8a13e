"""Struct-of-arrays fleet engine vs its scalar twin.

The contract under test (see ``src/repro/sim/fleetsoa.py``): the SoA
engine and the per-object scalar twin consume the same per-network RNG
streams in the same order and therefore agree **bit-for-bit** — every
counter, every float, NaN sentinels included — on any fleet shape,
protocol mix, channel harshness and supervision policy.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.channel import GilbertElliottParams
from repro.sim.evaluate import PartitionMetrics
from repro.sim.fleetsoa import (
    PROTOCOL_IDS,
    FleetConfig,
    FleetResult,
    FleetSpec,
    concat_fleet_results,
    fleet_results_identical,
    simulate_fleet_scalar,
    simulate_fleet_soa,
)
from repro.sim.multinode import BSNNode, MultiNodeBSN
from repro.sim.parallel import ParallelConfig, fleet_soa_rounds
from repro.sim.supervise import HealthPolicy


def synthetic_metrics(**overrides) -> PartitionMetrics:
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


#: A channel harsh enough to exercise retries, drops and bad-state dwell.
LOSSY = GilbertElliottParams(0.05, 0.10, 0.02, 0.7)


def assert_twins_identical(spec, n_rounds, policy=None):
    scalar = simulate_fleet_scalar(spec, n_rounds, policy=policy)
    soa = simulate_fleet_soa(spec, n_rounds, policy=policy)
    assert fleet_results_identical(scalar, soa)
    return soa


class TestFleetSpec:
    def test_homogeneous_layout(self):
        spec = FleetSpec.homogeneous(3, 4, synthetic_metrics(), protocol="mixed")
        assert spec.n_networks == 3
        assert spec.n_devices == 12
        assert spec.protocols.tolist() == [0, 1, 0]
        assert spec.net_off.tolist() == [0, 4, 8]
        assert spec.network_id.tolist() == [0] * 4 + [1] * 4 + [2] * 4
        assert spec.within.tolist() == [0, 1, 2, 3] * 3
        names = spec.device_names()
        assert len(set(names)) == 12
        assert names[0] == "net0/dev0"

    def test_from_networks(self):
        metrics = synthetic_metrics()
        fleet = [
            MultiNodeBSN(
                [
                    BSNNode("ecg", metrics, period_s=0.25),
                    BSNNode("emg", metrics, period_s=0.40),
                ],
                protocol="tdma" if k % 2 == 0 else "mimo",
            )
            for k in range(3)
        ]
        spec = FleetSpec.from_networks(fleet)
        assert spec.n_networks == 3
        assert spec.n_devices == 6
        assert spec.device_names()[:2] == ["net0/ecg", "net0/emg"]
        assert spec.radio_j[0] == metrics.sensor_tx_j + metrics.sensor_rx_j

    def test_validation(self):
        m = synthetic_metrics()
        with pytest.raises(ConfigurationError):
            FleetSpec.homogeneous(2, 0, m)
        with pytest.raises(ConfigurationError):
            FleetSpec.homogeneous(2, 2, m, protocol="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            FleetSpec(
                network_sizes=[2],
                protocols=[7],  # not a PROTOCOL_IDS code
                period_s=np.full(2, 0.25),
                front_delay_s=np.zeros(2),
                link_delay_s=np.zeros(2),
                compute_j=np.zeros(2),
                radio_j=np.zeros(2),
            )
        with pytest.raises(ConfigurationError):
            FleetSpec(
                network_sizes=[2],
                protocols=[PROTOCOL_IDS["tdma"]],
                period_s=np.full(3, 0.25),  # wrong column length
                front_delay_s=np.zeros(2),
                link_delay_s=np.zeros(2),
                compute_j=np.zeros(2),
                radio_j=np.zeros(2),
            )
        with pytest.raises(ConfigurationError):
            FleetConfig(events_per_round=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(battery_j=0.0)

    def test_slice_networks_bounds(self):
        spec = FleetSpec.homogeneous(3, 2, synthetic_metrics())
        with pytest.raises(ConfigurationError):
            spec.slice_networks(2, 5)
        with pytest.raises(ConfigurationError):
            spec.slice_networks(-1, 2)

    def test_slice_preserves_streams_and_names(self):
        spec = FleetSpec.homogeneous(4, 3, synthetic_metrics(), protocol="mixed")
        part = spec.slice_networks(1, 3)
        assert part.n_networks == 2
        assert part.network_seeds == spec.network_seeds[1:3]
        assert part.network_names == spec.network_names[1:3]
        assert part.device_names() == spec.device_names()[3:9]


class TestBitIdentity:
    @pytest.mark.parametrize("protocol", ["tdma", "mimo", "mixed"])
    def test_rectangular_fleet(self, protocol):
        cfg = FleetConfig(
            events_per_round=3, max_retries=2, channel=LOSSY, seed=11
        )
        spec = FleetSpec.homogeneous(
            6, 4, synthetic_metrics(), protocol=protocol, config=cfg
        )
        result = assert_twins_identical(spec, 5)
        assert result.offered.sum() > 0

    def test_ragged_fleet_mixed_protocols(self):
        """Unequal network sizes force the per-network TDMA wait scan."""
        m = synthetic_metrics()
        n_devices = 1 + 3 + 2
        link = np.array([2e-3, 1e-3, 3e-3, 2e-3, 1.5e-3, 2.5e-3])
        spec = FleetSpec(
            network_sizes=[1, 3, 2],
            protocols=[
                PROTOCOL_IDS["tdma"],
                PROTOCOL_IDS["tdma"],
                PROTOCOL_IDS["mimo"],
            ],
            period_s=np.full(n_devices, 0.25),
            front_delay_s=np.full(n_devices, m.delay_front_s),
            link_delay_s=link,
            compute_j=np.full(n_devices, m.sensor_compute_j),
            radio_j=np.full(n_devices, m.sensor_tx_j + m.sensor_rx_j),
            config=FleetConfig(
                events_per_round=2, max_retries=1, channel=LOSSY, seed=3
            ),
        )
        assert_twins_identical(spec, 6)

    def test_single_device_fleet(self):
        cfg = FleetConfig(channel=LOSSY, seed=5)
        spec = FleetSpec.homogeneous(
            1, 1, synthetic_metrics(), protocol="tdma", config=cfg
        )
        result = assert_twins_identical(spec, 4)
        assert result.n_devices == 1
        # A lone TDMA device never waits for slot-mates.
        assert result.latency_sum_s[0] <= result.latency_events[0] * (
            synthetic_metrics().delay_front_s + 3 * 2e-3
        )

    def test_empty_fleet(self):
        spec = FleetSpec.homogeneous(0, 1, synthetic_metrics())
        result = assert_twins_identical(spec, 3)
        assert result.n_devices == 0
        assert result.availability.shape == (3, 0)
        assert result.fleet_availability == 1.0

    def test_battery_death_drops_devices_out(self):
        """Dead devices stop being scheduled (NaN availability rows) but
        their channels keep stepping — both paths must agree on when each
        device dies and on every post-death column."""
        cfg = FleetConfig(
            events_per_round=4,
            max_retries=2,
            channel=LOSSY,
            battery_j=3.5e-5,  # a few rounds of transmissions
            seed=13,
        )
        spec = FleetSpec.homogeneous(
            3, 3, synthetic_metrics(), protocol="mixed", config=cfg
        )
        result = assert_twins_identical(spec, 10)
        assert not result.alive.any()
        # After death a device's availability column is NaN forever.
        dead_rows = np.isnan(result.availability)
        assert dead_rows[-1].all()
        # Offered events froze at death: strictly fewer than a full run.
        assert (result.offered < 10 * cfg.events_per_round).all()

    def test_supervised_fleet_with_quarantines(self):
        policy = HealthPolicy(
            degraded_availability=0.95,
            quarantine_availability=0.60,
            quarantine_rounds=2,
            recovery_rounds=2,
            probation_rounds=2,
        )
        harsh = GilbertElliottParams(0.30, 0.08, 0.05, 0.95)
        cfg = FleetConfig(
            events_per_round=4, max_retries=1, channel=harsh, seed=29
        )
        spec = FleetSpec.homogeneous(
            5, 4, synthetic_metrics(), protocol="mixed", config=cfg
        )
        result = assert_twins_identical(spec, 12, policy=policy)
        assert result.health is not None
        assert result.quarantines is not None
        assert result.quarantines.sum() > 0
        # Quarantined rounds show up as NaN availability entries.
        assert np.isnan(result.availability).any()

    def test_all_devices_quarantined(self):
        """A catastrophic channel quarantines the whole fleet; rounds where
        nobody is scheduled must still advance both paths identically."""
        policy = HealthPolicy(
            degraded_availability=0.99,
            quarantine_availability=0.95,
            quarantine_rounds=1,
            recovery_rounds=4,
            probation_rounds=3,
        )
        # Near-certain loss: availability ~0 in every scheduled round.
        disaster = GilbertElliottParams(0.99, 0.01, 0.95, 0.99)
        cfg = FleetConfig(
            events_per_round=2, max_retries=1, channel=disaster, seed=2
        )
        spec = FleetSpec.homogeneous(
            2, 3, synthetic_metrics(), protocol="mixed", config=cfg
        )
        result = assert_twins_identical(spec, 3, policy=policy)
        assert result.quarantines is not None
        assert (result.quarantines >= 1).all()
        # Round 2: everyone sits in quarantine — a full NaN row.
        assert np.isnan(result.availability[1]).all()

    def test_validation(self):
        spec = FleetSpec.homogeneous(1, 1, synthetic_metrics())
        with pytest.raises(ConfigurationError):
            simulate_fleet_soa(spec, 0)
        with pytest.raises(ConfigurationError):
            simulate_fleet_scalar(spec, 0)


class TestRngOrderPins:
    """Hard-coded outcomes of a seeded run.

    These values were computed at test-writing time from the scalar twin
    (seed 7, mixed 2x3 fleet, 4 rounds).  They pin the RNG draw-order
    contract itself: any reordering of the per-network stream — chain
    init draws, block layout, device-major/slot-minor interleave —
    changes them, even if the twins still agree with each other.
    """

    @pytest.fixture()
    def pinned_spec(self):
        cfg = FleetConfig(
            events_per_round=3,
            max_retries=2,
            channel=GilbertElliottParams(0.05, 0.10, 0.02, 0.7),
            seed=7,
        )
        return FleetSpec.homogeneous(
            2, 3, synthetic_metrics(), protocol="mixed", config=cfg
        )

    @pytest.mark.parametrize("simulate", [simulate_fleet_soa, simulate_fleet_scalar])
    def test_pinned_counters(self, pinned_spec, simulate):
        res = simulate(pinned_spec, 4)
        assert res.delivered.tolist() == [11, 12, 10, 12, 11, 9]
        assert res.dropped.tolist() == [1, 0, 1, 0, 1, 3]
        assert res.attempts.tolist() == [19, 12, 17, 17, 18, 21]
        assert res.seq.tolist() == [19, 12, 17, 17, 18, 21]
        assert res.slot.tolist() == [1, 2, 0, 1, 2, 0]
        assert res.pending.tolist() == [False, False, True, False, False, False]
        assert res.chain_bad.tolist() == [True, False, True, False, False, False]
        assert res.latency_events.tolist() == [11, 12, 10, 12, 11, 9]

    @pytest.mark.parametrize("simulate", [simulate_fleet_soa, simulate_fleet_scalar])
    def test_pinned_floats_bitwise(self, pinned_spec, simulate):
        res = simulate(pinned_spec, 4)
        assert res.latency_sum_s.tolist() == [
            0.05900000000000001,
            0.06,
            0.05399999999999999,
            0.04600000000000001,
            0.04100000000000001,
            0.033,
        ]
        assert res.fleet_availability == 0.9027777777777778

    def test_reruns_are_deterministic(self, pinned_spec):
        a = simulate_fleet_soa(pinned_spec, 4)
        b = simulate_fleet_soa(pinned_spec, 4)
        assert fleet_results_identical(a, b)

    def test_seed_changes_the_outcome(self, pinned_spec):
        other = FleetSpec.homogeneous(
            2,
            3,
            synthetic_metrics(),
            protocol="mixed",
            config=FleetConfig(
                events_per_round=3,
                max_retries=2,
                channel=GilbertElliottParams(0.05, 0.10, 0.02, 0.7),
                seed=8,
            ),
        )
        assert not fleet_results_identical(
            simulate_fleet_soa(pinned_spec, 4), simulate_fleet_soa(other, 4)
        )


class TestSupervisedPins:
    """Hard-coded supervised outcomes of seeded runs.

    Captured from the object supervisor (one ``DeviceHealth`` per
    device) before the fleet engine moved to ``HealthColumns``; they pin
    the supervised SoA path to that output, where ``TestRngOrderPins``
    covers only unsupervised runs.
    """

    @staticmethod
    def digest(result):
        h = hashlib.sha256()
        h.update(",".join(result.health).encode())
        h.update(np.ascontiguousarray(result.quarantines, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(result.availability, dtype=np.float64).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize(
        "simulate",
        [
            lambda spec: simulate_fleet_soa(spec, 10, policy=HealthPolicy()),
            lambda spec: fleet_soa_rounds(
                spec, 10, HealthPolicy(), ParallelConfig("serial", max_workers=3)
            ),
        ],
        ids=["soa", "sharded"],
    )
    def test_mixed_500x8_fleet_digest(self, simulate):
        spec = FleetSpec.homogeneous(
            500,
            8,
            synthetic_metrics(),
            protocol="mixed",
            config=FleetConfig(events_per_round=4, max_retries=2, seed=17),
        )
        res = simulate(spec)
        assert int(res.quarantines.sum()) == 1622
        assert int(np.isnan(res.availability).sum()) == 2789
        assert self.digest(res) == (
            "85b3948f88e562295cebff20c004f5ac9914c5e901ca8ee39284a094f54f65c7"
        )

    @pytest.mark.parametrize("simulate", [simulate_fleet_soa, simulate_fleet_scalar])
    def test_harsh_5x4_fleet(self, simulate):
        """The fleet of ``test_supervised_fleet_with_quarantines``."""
        policy = HealthPolicy(
            degraded_availability=0.95,
            quarantine_availability=0.60,
            quarantine_rounds=2,
            recovery_rounds=2,
            probation_rounds=2,
        )
        cfg = FleetConfig(
            events_per_round=4,
            max_retries=1,
            channel=GilbertElliottParams(0.30, 0.08, 0.05, 0.95),
            seed=29,
        )
        spec = FleetSpec.homogeneous(
            5, 4, synthetic_metrics(), protocol="mixed", config=cfg
        )
        res = simulate(spec, 12, policy=policy)
        q, r = "quarantined", "recovering"
        assert res.health == [r] * 9 + [q] * 3 + [r] * 4 + [q, q, r, q]
        assert res.quarantines.tolist() == [4] * 20
        # Unscheduled devices per round, and the scheduled availability sum.
        assert np.isnan(res.availability).sum(axis=1).tolist() == [
            0, 17, 19, 3, 17, 19, 4, 16, 19, 5, 15, 19,
        ]
        assert np.nansum(res.availability, axis=1).tolist() == [
            5.75, 2.0, 0.5, 4.75, 1.0, 0.0, 4.0, 1.25, 0.25, 5.75, 1.75, 0.25,
        ]


class TestSliceConcat:
    def test_slices_reproduce_the_full_fleet(self):
        cfg = FleetConfig(channel=LOSSY, seed=19)
        spec = FleetSpec.homogeneous(
            5, 3, synthetic_metrics(), protocol="mixed", config=cfg
        )
        whole = simulate_fleet_soa(spec, 4)
        parts = [
            simulate_fleet_soa(spec.slice_networks(lo, hi), 4)
            for lo, hi in ((0, 2), (2, 3), (3, 5))
        ]
        assert fleet_results_identical(whole, concat_fleet_results(parts))

    def test_concat_validation(self):
        cfg = FleetConfig(channel=LOSSY, seed=19)
        spec = FleetSpec.homogeneous(2, 2, synthetic_metrics(), config=cfg)
        a = simulate_fleet_soa(spec.slice_networks(0, 1), 3)
        b = simulate_fleet_soa(spec.slice_networks(1, 2), 2)
        with pytest.raises(ConfigurationError):
            concat_fleet_results([])
        with pytest.raises(ConfigurationError):
            concat_fleet_results([a, b])  # n_rounds disagree
        supervised = simulate_fleet_soa(
            spec.slice_networks(1, 2), 3, policy=HealthPolicy()
        )
        with pytest.raises(ConfigurationError):
            concat_fleet_results([a, supervised])


class TestFleetResultProperties:
    def test_mean_latency_nan_without_deliveries(self):
        res = FleetResult(
            n_rounds=1,
            availability=np.full((1, 2), np.nan),
            offered=np.array([4, 0]),
            delivered=np.array([2, 0]),
            dropped=np.zeros(2, dtype=np.int64),
            attempts=np.array([5, 0]),
            latency_sum_s=np.array([0.1, 0.0]),
            latency_events=np.array([2, 0]),
            energy_j=np.zeros(2),
            charge_j=np.array([1.0, 0.0]),
            seq=np.zeros(2, dtype=np.int64),
            slot=np.zeros(2, dtype=np.int64),
            pending=np.zeros(2, dtype=bool),
            chain_bad=np.zeros(2, dtype=bool),
        )
        mean = res.mean_latency_s
        assert mean[0] == pytest.approx(0.05)
        assert np.isnan(mean[1])
        assert res.fleet_availability == pytest.approx(0.5)
        assert res.alive.tolist() == [True, False]
