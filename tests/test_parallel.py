"""Tests: the parallel fleet driver is bit-identical to serial execution."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.generator import AutomaticXProGenerator
from repro.errors import ConfigurationError, SimulationError
from repro.graph.cuts import sensor_cut
from repro.graph.stgraph import build_st_graph_template
from repro.hw.arq import ARQConfig
from repro.hw.wireless import WirelessLink
from repro.sim import parallel as par
from repro.sim.channel import GilbertElliottParams
from repro.sim.evaluate import evaluate_partition
from repro.sim.faults import BurstLoss, FaultCampaign, LinkOutage, PayloadCorruption
from repro.sim.multinode import BSNNode, MultiNodeBSN
from repro.sim.parallel import (
    SERIAL,
    CampaignTask,
    ParallelConfig,
    derive_seeds,
    fleet_reports,
    fleet_simulations,
    fleet_soa_rounds,
    parallel_map,
    run_campaigns,
    shard_map,
    sweep,
)
from repro.sim.simulator import CrossEndSimulator

#: Two-worker process pool: enough to exercise real cross-process dispatch
#: without oversubscribing CI runners.
PROCESS = ParallelConfig(backend="process", max_workers=2)


@pytest.fixture(scope="module")
def metrics_pair(request):
    """Cross-end (generated) and in-sensor partition metrics for C1."""
    topo = request.getfixturevalue("tiny_topology")
    lib = request.getfixturevalue("energy_lib_90")
    cpu = request.getfixturevalue("cpu_model")
    link = WirelessLink("model2")
    primary = AutomaticXProGenerator(topo, lib, link, cpu).generate().metrics
    fallback = evaluate_partition(topo, sensor_cut(topo), lib, link, cpu)
    return primary, fallback


@pytest.fixture(scope="module")
def fleet(metrics_pair):
    """A mixed TDMA/MIMO fleet of small BSNs (the satellite requirement)."""
    primary, fallback = metrics_pair
    networks = []
    for i, protocol in enumerate(["tdma", "mimo", "tdma", "mimo"]):
        nodes = [
            BSNNode(f"ecg{i}", primary, period_s=0.4),
            BSNNode(f"emg{i}", fallback, period_s=0.3 + 0.05 * i),
        ]
        networks.append(MultiNodeBSN(nodes, protocol=protocol))
    return networks


def _reports_equal(a, b):
    """Bitwise report equality that treats NaN sentinels as equal.

    Dropped events record ``latency_s = nan``; ``nan == nan`` is False, so
    naive ``==`` rejects reports that are byte-identical after the pickle
    round-trip (in-process, the shared nan object short-circuits on
    identity).  repr() round-trips floats bit-exactly, so comparing reprs
    is bit-identity with NaN treated as itself.
    """
    return repr(a) == repr(b)


def _square(x):
    return x * x


def _affine(a, b):
    return 3 * a + b


def _priced_cut(template, lam):
    """Worker: one Lagrangian price point against a shared s-t template.

    Reports the cut only: the minimal min-cut is unique, so it is invariant
    to warm-start history, whereas the flow *total* accumulates in a
    history-dependent order and may drift by an ulp between schedules.  The
    generator consumes only the cut (metrics are recomputed from it), so
    the cut is the decision-relevant, bit-stable output.
    """
    in_sensor, _total = template.solve_lagrangian(lam)
    return sorted(in_sensor)


class TestConfig:
    def test_backend_validated(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(backend="threads")
        with pytest.raises(ConfigurationError):
            ParallelConfig(max_workers=0)
        with pytest.raises(ConfigurationError):
            ParallelConfig(chunksize=0)

    def test_resolved_workers(self):
        assert ParallelConfig(max_workers=3).resolved_workers() == 3
        assert SERIAL.resolved_workers() >= 1


class TestDeriveSeeds:
    def test_deterministic_and_independent(self):
        a = derive_seeds(1234, 6)
        assert a == derive_seeds(1234, 6)
        assert len(set(a)) == 6
        assert derive_seeds(1234, 3) == a[:3]
        assert derive_seeds(4321, 6) != a

    def test_validation(self):
        assert derive_seeds(0, 0) == []
        with pytest.raises(ConfigurationError):
            derive_seeds(0, -1)


class TestParallelMap:
    def test_serial_matches_process(self):
        items = list(range(12))
        assert parallel_map(_square, items, SERIAL) == parallel_map(
            _square, items, PROCESS
        )

    def test_empty_items(self):
        assert parallel_map(_square, [], PROCESS) == []

    def test_order_preserved(self):
        out = parallel_map(_square, [5, 1, 4, 2], PROCESS)
        assert out == [25, 1, 16, 4]


def _in_worker():
    """Whether this call runs inside a pool worker process."""
    return multiprocessing.current_process().name != "MainProcess"


def _die_in_worker(x):
    """Worker: kill the hosting process; compute fine on the serial retry."""
    if _in_worker():
        os._exit(1)
    return x * 10


def _die_everywhere(x):
    """Worker: kill the pool process AND fail the in-process serial retry."""
    if _in_worker():
        os._exit(1)
    raise RuntimeError("no serial luck either")


def _raise_value_error(x):
    raise ValueError(f"bad item {x}")


class TestWorkerDeathRecovery:
    """Satellite: a dying worker process must not take the fan-out down."""

    def test_dead_worker_retries_serially_and_succeeds(self):
        items = [1, 2, 3, 4, 5]
        assert parallel_map(_die_in_worker, items, PROCESS) == [
            10, 20, 30, 40, 50,
        ]

    def test_double_failure_names_the_task_index(self):
        with pytest.raises(
            SimulationError,
            match=r"task 0 failed in a worker process and again on the "
            r"serial retry",
        ):
            parallel_map(_die_everywhere, [7], PROCESS)

    def test_ordinary_worker_exception_propagates_unchanged(self):
        """A healthy worker raising is the caller's bug, not pool damage:
        the original exception type must surface, not SimulationError."""
        with pytest.raises(ValueError, match="bad item 3"):
            parallel_map(_raise_value_error, [3], PROCESS)

    def test_serial_backend_is_untouched_by_recovery_path(self):
        with pytest.raises(ValueError, match="bad item 5"):
            parallel_map(_raise_value_error, [5], SERIAL)


def _scaled(factor, x):
    return factor * x


def _scaled_or_raise(factor, x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return factor * x


def _die_in_worker_scaled(factor, x):
    """Worker: kill the pool process; scale by ``shared`` on the retry."""
    if _in_worker():
        os._exit(1)
    return factor * x


def _shard_pid(shared, bounds):
    return os.getpid()


def _shard_bounds(shared, bounds):
    return bounds


class TestSharedState:
    """``shared=`` reaches every task and never lands in the parent."""

    @pytest.mark.parametrize("config", [SERIAL, PROCESS], ids=["serial", "process"])
    def test_parent_slot_stays_empty(self, config):
        assert parallel_map(_scaled, [1, 2, 3], config, shared=10) == [10, 20, 30]
        assert par._WORKER_SHARED == ()
        with pytest.raises(ValueError, match="bad item 3"):
            parallel_map(_scaled_or_raise, [1, 2, 3], config, shared=10)
        assert par._WORKER_SHARED == ()

    def test_serial_retry_receives_shared(self):
        out = parallel_map(_die_in_worker_scaled, [1, 2, 3], PROCESS, shared=7)
        assert out == [7, 14, 21]
        assert par._WORKER_SHARED == ()

    def test_shard_bounds_are_contiguous_and_cover(self):
        for n in range(1, 10):
            for shards in range(1, n + 4):
                parts, bounds = shard_map(_shard_bounds, n, None, SERIAL, shards)
                assert parts == bounds
                assert len(bounds) == min(shards, n)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                assert all(lo < hi for lo, hi in bounds)
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_single_shard_starts_no_pool(self):
        parts, bounds = shard_map(_shard_pid, 5, None, PROCESS, shards=1)
        assert parts == [os.getpid()]
        assert bounds == [(0, 5)]


class TestFleet:
    def test_reports_identical_serial_vs_process(self, fleet):
        serial = fleet_reports(fleet, SERIAL)
        parallel = fleet_reports(fleet, PROCESS)
        assert serial == parallel
        # Mixed protocols genuinely covered: MIMO removes TDMA contention.
        assert serial[1].worst_event_delay_s <= serial[0].worst_event_delay_s

    def test_simulations_identical_serial_vs_process(self, fleet):
        serial = fleet_simulations(fleet, 20, SERIAL)
        parallel = fleet_simulations(fleet, 20, PROCESS)
        assert serial == parallel
        assert len(serial) == len(fleet)

    def test_event_count_validated(self, fleet):
        with pytest.raises(ConfigurationError):
            fleet_simulations(fleet, 0, SERIAL)


class TestFleetSoaRounds:
    """Sharded SoA fan-out == unsharded == serial, bit-for-bit."""

    @pytest.fixture(scope="class")
    def soa_spec(self):
        from repro.sim.channel import GilbertElliottParams as GE
        from repro.sim.evaluate import PartitionMetrics
        from repro.sim.fleetsoa import FleetConfig, FleetSpec

        metrics = PartitionMetrics(
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
        return FleetSpec.homogeneous(
            6,
            3,
            metrics,
            protocol="mixed",
            config=FleetConfig(channel=GE(0.05, 0.10, 0.02, 0.7), seed=23),
        )

    def test_serial_process_and_direct_agree(self, soa_spec):
        from repro.sim.fleetsoa import fleet_results_identical, simulate_fleet_soa

        direct = simulate_fleet_soa(soa_spec, 4)
        serial = fleet_soa_rounds(soa_spec, 4, config=SERIAL, shards=3)
        process = fleet_soa_rounds(soa_spec, 4, config=PROCESS, shards=3)
        assert fleet_results_identical(direct, serial)
        assert fleet_results_identical(direct, process)

    def test_shard_count_does_not_change_the_result(self, soa_spec):
        from repro.sim.fleetsoa import fleet_results_identical

        one = fleet_soa_rounds(soa_spec, 3, config=SERIAL, shards=1)
        many = fleet_soa_rounds(soa_spec, 3, config=SERIAL, shards=6)
        oversubscribed = fleet_soa_rounds(soa_spec, 3, config=SERIAL, shards=50)
        assert fleet_results_identical(one, many)
        assert fleet_results_identical(one, oversubscribed)

    def test_supervised_fanout_identical(self, soa_spec):
        from repro.sim.fleetsoa import fleet_results_identical, simulate_fleet_soa
        from repro.sim.supervise import HealthPolicy

        policy = HealthPolicy(
            degraded_availability=0.95,
            quarantine_availability=0.60,
            quarantine_rounds=2,
        )
        direct = simulate_fleet_soa(soa_spec, 6, policy=policy)
        sharded = fleet_soa_rounds(
            soa_spec, 6, policy=policy, config=PROCESS, shards=3
        )
        assert fleet_results_identical(direct, sharded)
        assert direct.health is not None

    def test_empty_fleet_short_circuits(self, soa_spec):
        empty = soa_spec.slice_networks(0, 0)
        result = fleet_soa_rounds(empty, 2, config=SERIAL)
        assert result.n_devices == 0
        assert result.availability.shape == (2, 0)

    def test_validation(self, soa_spec):
        with pytest.raises(ConfigurationError):
            fleet_soa_rounds(soa_spec, 0, config=SERIAL)
        with pytest.raises(ConfigurationError):
            fleet_soa_rounds(soa_spec, 2, config=SERIAL, shards=0)


class TestStreamSoaWindows:
    """Sharded stream fan-out == unsharded == serial, bit-for-bit."""

    @pytest.fixture(scope="class")
    def stream_case(self):
        from repro.stream import MomentsBackend, StreamSpec

        rng = np.random.default_rng(31)
        n = 10
        spec = StreamSpec(
            windows=rng.integers(4, 24, n),
            hops=rng.integers(1, 30, n),  # hop > window included
            levels=rng.normal(0.0, 0.4, n),
            tenants=rng.integers(0, 3, n),
            capacity=32,
        )
        return spec, MomentsBackend(), rng.normal(0.0, 1.0, (n, 130))

    def test_serial_process_and_direct_agree(self, stream_case):
        from repro.sim.parallel import stream_soa_windows
        from repro.stream import run_stream_pool, stream_results_identical

        spec, backend, samples = stream_case
        direct = run_stream_pool(spec, backend, samples, 16)
        serial = stream_soa_windows(
            spec, backend, samples, 16, config=SERIAL, shards=3
        )
        process = stream_soa_windows(
            spec, backend, samples, 16, config=PROCESS, shards=3
        )
        assert stream_results_identical(direct, serial)
        assert stream_results_identical(direct, process)

    def test_shard_count_does_not_change_the_result(self, stream_case):
        from repro.sim.parallel import stream_soa_windows
        from repro.stream import stream_results_identical

        spec, backend, samples = stream_case
        one = stream_soa_windows(
            spec, backend, samples, 16, config=SERIAL, shards=1
        )
        many = stream_soa_windows(
            spec, backend, samples, 16, config=SERIAL, shards=10
        )
        oversubscribed = stream_soa_windows(
            spec, backend, samples, 16, config=SERIAL, shards=50
        )
        assert stream_results_identical(one, many)
        assert stream_results_identical(one, oversubscribed)

    def test_backpressure_policies_shard_identically(self, stream_case):
        from repro.sim.parallel import stream_soa_windows
        from repro.stream import run_stream_pool, stream_results_identical

        spec, backend, samples = stream_case
        for policy in ("skip_stale", "drop_new"):
            direct = run_stream_pool(spec, backend, samples, 40, policy=policy)
            sharded = stream_soa_windows(
                spec, backend, samples, 40, policy=policy,
                config=SERIAL, shards=4,
            )
            assert stream_results_identical(direct, sharded)

    def test_validation(self, stream_case):
        from repro.sim.parallel import stream_soa_windows

        spec, backend, samples = stream_case
        with pytest.raises(ConfigurationError):
            stream_soa_windows(spec, backend, samples, 0, config=SERIAL)
        with pytest.raises(ConfigurationError):
            stream_soa_windows(
                spec, backend, samples, 8, config=SERIAL, shards=0
            )
        with pytest.raises(ConfigurationError):
            stream_soa_windows(
                spec, backend, samples[:4], 8, config=SERIAL
            )


class TestCampaigns:
    def _tasks(self, metrics_pair):
        primary, _ = metrics_pair
        simulator = CrossEndSimulator(primary, period_s=0.25, seed=3)
        tasks = []
        for label, seed in zip(["a", "b", "c"], derive_seeds(99, 3)):
            campaign = FaultCampaign(
                [
                    BurstLoss(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
                    PayloadCorruption(0.01),
                    LinkOutage(start_event=50, n_events=20),
                ],
                seed=seed,
            )
            tasks.append(
                CampaignTask(
                    label,
                    campaign,
                    simulator,
                    n_events=200,
                    run_kwargs=(("arq", ARQConfig(max_retries=3)),),
                )
            )
        return tasks

    def test_reports_identical_serial_vs_process(self, metrics_pair):
        serial = run_campaigns(self._tasks(metrics_pair), SERIAL)
        parallel = run_campaigns(self._tasks(metrics_pair), PROCESS)
        assert _reports_equal(serial, parallel)

    def test_rerun_is_reproducible(self, metrics_pair):
        first = run_campaigns(self._tasks(metrics_pair), PROCESS)
        second = run_campaigns(self._tasks(metrics_pair), PROCESS)
        assert _reports_equal(first, second)


class TestSweep:
    def test_grid_order_and_values(self):
        grid = {"a": [0, 1, 2], "b": [10, 20]}
        results = sweep(_affine, grid, SERIAL)
        assert [params for params, _ in results] == [
            {"a": a, "b": b} for a in (0, 1, 2) for b in (10, 20)
        ]
        assert all(value == 3 * p["a"] + p["b"] for p, value in results)

    def test_serial_matches_process(self):
        grid = {"a": list(range(5)), "b": [1, 7]}
        assert sweep(_affine, grid, SERIAL) == sweep(_affine, grid, PROCESS)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(_affine, {}, SERIAL)


class TestSweepShared:
    """Satellite: heavyweight sweep-invariant state ships once per worker."""

    @pytest.fixture(scope="class")
    def priced_template(self, request):
        """A picklable s-t graph template plus the natural price scale."""
        topo = request.getfixturevalue("tiny_topology")
        lib = request.getfixturevalue("energy_lib_90")
        cpu = request.getfixturevalue("cpu_model")
        link = WirelessLink("model3")
        gen = AutomaticXProGenerator(topo, lib, link, cpu)
        template = build_st_graph_template(topo, lib, link, gen._delay_weights(1.0))
        return template, gen._initial_lambda()

    def test_shared_template_serial_matches_process(self, priced_template):
        template, lam0 = priced_template
        grid = {"lam": [lam0 * f for f in (0.0, 0.02, 0.1, 0.5, 1.0, 4.0)]}
        serial = sweep(_priced_cut, grid, SERIAL, shared={"template": template})
        process = sweep(_priced_cut, grid, PROCESS, shared={"template": template})
        assert repr(serial) == repr(process)
        # Same values a plain in-process loop over the ladder produces.
        expected = [_priced_cut(template=template, lam=lam) for lam in grid["lam"]]
        assert [value for _, value in serial] == expected

    def test_process_workers_do_not_feed_back(self, priced_template):
        """Worker-side warm states never mutate the caller's template."""
        template, lam0 = priced_template
        before = template.stats.total_solves
        sweep(
            _priced_cut,
            {"lam": [0.0, lam0, 2.0 * lam0]},
            PROCESS,
            shared={"template": template},
        )
        assert template.stats.total_solves == before

    def test_shared_keys_must_not_shadow_grid(self, priced_template):
        template, _ = priced_template
        with pytest.raises(ConfigurationError):
            sweep(
                _priced_cut,
                {"lam": [0.0], "template": [template]},
                SERIAL,
                shared={"template": template},
            )


class TestSeededSimulatorFanout:
    def test_jittered_replicas_reproducible(self, metrics_pair):
        primary, _ = metrics_pair

        def reports():
            sims = [
                CrossEndSimulator(primary, period_s=0.25, jitter_sigma=0.05, seed=s)
                for s in derive_seeds(7, 4)
            ]
            return [s.run(50) for s in sims]

        first = reports()
        assert first == reports()
        # Distinct derived seeds give genuinely independent jitter streams.
        latencies = np.asarray([r.mean_latency_s for r in first])
        assert len(np.unique(latencies)) > 1
