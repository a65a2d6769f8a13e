"""Tests: the parallel fleet driver is bit-identical to serial execution."""

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.generator import AutomaticXProGenerator
from repro.errors import ConfigurationError, SimulationError
from repro.graph.cuts import sensor_cut
from repro.graph.stgraph import build_st_graph
from repro.hw.arq import ARQConfig
from repro.hw.wireless import WirelessLink
from repro.sim import parallel as par
from repro.sim.channel import GilbertElliottParams
from repro.sim.evaluate import evaluate_partition
from repro.sim.faults import BurstLoss, FaultCampaign, LinkOutage, PayloadCorruption
from repro.sim.multinode import BSNNode, MultiNodeBSN
from repro.sim.parallel import (
    SERIAL,
    ParallelConfig,
    derive_seeds,
    fleet_soa_rounds,
    parallel_map,
    shard_map,
)
from repro.sim.simulator import CrossEndSimulator

#: Two-worker process pool: enough to exercise real cross-process dispatch
#: without oversubscribing CI runners.
PROCESS = ParallelConfig(backend="process", max_workers=2)


def _serial_shards(k):
    """In-process reference that still splits the item axis into ``k`` shards."""
    return ParallelConfig(backend="serial", max_workers=k)


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


def _bsn_report(bsn):
    return bsn.report()


def _bsn_simulate(task):
    bsn, n_events = task
    return bsn.simulate(n_events)


def _run_campaign(task):
    campaign, simulator, n_events, arq = task
    return campaign.run(simulator, n_events, arq=arq)


def _priced_cut(template, lam):
    """Worker: one Lagrangian price point against a shared s-t template.

    Reports the cut only: the minimal min-cut is unique, so it is invariant
    to warm-start history, whereas the flow *total* accumulates in a
    history-dependent order and may drift by an ulp between schedules.  The
    generator consumes only the cut (metrics are recomputed from it), so
    the cut is the decision-relevant, bit-stable output.
    """
    in_sensor, _total = template.solve(lam)
    return sorted(in_sensor)


class TestConfig:
    def test_backend_validated(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(backend="threads")
        with pytest.raises(ConfigurationError):
            ParallelConfig(max_workers=0)

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

    @given(
        master=st.integers(min_value=0, max_value=2**80),
        n=st.integers(min_value=0, max_value=2000),
    )
    @example(master=2**32, n=5)
    @example(master=2**64 - 1, n=500)
    @example(master=2**70 + 3, n=1)
    # Masters wider than the four-word pool mix their extra words first.
    @example(master=2**128 + 5, n=5)
    @example(master=2**200 + 17, n=500)
    @settings(max_examples=60, deadline=None)
    def test_matches_seed_sequence_spawn(self, master, n):
        children = np.random.SeedSequence(master).spawn(n)
        assert derive_seeds(master, n) == [
            int(child.generate_state(1, np.uint64)[0]) for child in children
        ]

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


def _retry_records(caplog):
    """The serial-retry warnings ``parallel_map`` logged."""
    return [
        r
        for r in caplog.records
        if r.name == "repro.sim.parallel" and r.levelname == "WARNING"
    ]


class TestWorkerDeathRecovery:
    """Satellite: a dying worker process must not take the fan-out down."""

    def test_dead_worker_retries_serially_and_succeeds(self, caplog):
        items = [1, 2, 3, 4, 5]
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            assert parallel_map(_die_in_worker, items, PROCESS) == [
                10, 20, 30, 40, 50,
            ]
        # Every task kills its worker, so every task is retried, and
        # each retry is logged with its task index and pool size.
        records = _retry_records(caplog)
        assert sorted(r.task for r in records) == list(range(len(items)))
        assert all(r.workers == PROCESS.max_workers for r in records)

    def test_double_failure_names_the_task_index(self, caplog):
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            with pytest.raises(
                SimulationError,
                match=r"task 0 failed in a worker process and again on the "
                r"serial retry",
            ):
                parallel_map(_die_everywhere, [7], PROCESS)
        [record] = _retry_records(caplog)
        assert (record.task, record.workers) == (0, 1)

    def test_ordinary_worker_exception_propagates_unchanged(self, caplog):
        """A healthy worker raising is the caller's bug, not pool damage:
        the original exception type must surface, not SimulationError."""
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            with pytest.raises(ValueError, match="bad item 3"):
                parallel_map(_raise_value_error, [3], PROCESS)
        assert _retry_records(caplog) == []

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


def _shared_and_token(factor, x):
    """Worker: the scaled item and the token of the state it was scaled by."""
    return factor * x, par._WORKER_SHARED_STATE[0]


def _cached_shared(x):
    """Worker: the shared state this process holds during an unshared call."""
    return par._WORKER_SHARED_STATE


def _shard_pid(shared, bounds):
    return os.getpid()


def _shard_bounds(shared, bounds):
    return bounds


class TestSharedState:
    """``shared=`` reaches every task and never lands in the parent."""

    @pytest.mark.parametrize("config", [SERIAL, PROCESS], ids=["serial", "process"])
    def test_parent_slot_stays_empty(self, config):
        assert parallel_map(_scaled, [1, 2, 3], config, shared=10) == [10, 20, 30]
        assert par._WORKER_SHARED_STATE is None
        with pytest.raises(ValueError, match="bad item 3"):
            parallel_map(_scaled_or_raise, [1, 2, 3], config, shared=10)
        assert par._WORKER_SHARED_STATE is None

    def test_serial_retry_receives_shared(self, caplog):
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            out = parallel_map(
                _die_in_worker_scaled, [1, 2, 3], PROCESS, shared=7
            )
        assert out == [7, 14, 21]
        assert par._WORKER_SHARED_STATE is None
        assert len(_retry_records(caplog)) == 3

    def test_later_call_never_sees_earlier_shared(self):
        """Two calls on the same live workers: each task sees its own
        call's ``shared`` under its own token, and an unshared call sees
        no cached state at all."""
        first = parallel_map(_shared_and_token, [1, 2, 3, 4], PROCESS, shared=10)
        second = parallel_map(_shared_and_token, [1, 2, 3, 4], PROCESS, shared=20)
        assert [value for value, _ in first] == [10, 20, 30, 40]
        assert [value for value, _ in second] == [20, 40, 60, 80]
        first_tokens = {token for _, token in first}
        second_tokens = {token for _, token in second}
        assert len(first_tokens) == len(second_tokens) == 1
        assert first_tokens != second_tokens
        assert parallel_map(_cached_shared, [1, 2, 3, 4], PROCESS) == [None] * 4
        assert par._WORKER_SHARED_STATE is None

    def test_shard_bounds_are_contiguous_and_cover(self):
        for n in range(1, 10):
            for shards in range(1, n + 4):
                parts, bounds = shard_map(
                    _shard_bounds, n, None, _serial_shards(shards)
                )
                assert parts == bounds
                assert len(bounds) == min(shards, n)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                assert all(lo < hi for lo, hi in bounds)
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_single_shard_starts_no_pool(self):
        one_worker = ParallelConfig(backend="process", max_workers=1)
        parts, bounds = shard_map(_shard_pid, 5, None, one_worker)
        assert parts == [os.getpid()]
        assert bounds == [(0, 5)]


def _pid(x):
    return os.getpid()


def _pool_pids():
    """Pids of this process's live child processes (the pool workers)."""
    return {p.pid for p in multiprocessing.active_children()}


def _running(pid):
    """Whether ``pid`` is a live process (a zombie counts as gone).

    A process reaped between the open and the read fails the read with
    ``ProcessLookupError``; it is gone too.
    """
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except (FileNotFoundError, ProcessLookupError):
        return False


def _wait_gone(pids, timeout_s=5.0):
    """The subset of ``pids`` still running after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        alive = {pid for pid in alive if _running(pid)}
        time.sleep(0.05)
    return {pid for pid in alive if _running(pid)}


def _run_python(script):
    """Stdout of ``script`` run by a child interpreter that imports this
    checkout's ``repro``; fails on a non-zero exit or after 60 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(par.__file__).parents[2])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLivePool:
    """One worker pool per process, reused across calls."""

    def test_workers_are_the_same_across_calls(self):
        parallel_map(_pid, [1, 2], PROCESS)
        workers = _pool_pids()
        assert len(workers) == PROCESS.max_workers
        assert set(parallel_map(_pid, range(8), PROCESS)) <= workers
        assert set(parallel_map(_pid, range(8), PROCESS)) <= workers
        assert _pool_pids() == workers

    def test_worker_count_change_replaces_the_pool(self):
        parallel_map(_pid, [1, 2], PROCESS)
        two = _pool_pids()
        [solo] = set(parallel_map(_pid, [1, 2], ParallelConfig(max_workers=1)))
        assert _pool_pids() == {solo}
        assert solo not in two and not any(_running(pid) for pid in two)
        parallel_map(_pid, [1, 2], PROCESS)
        assert len(_pool_pids()) == 2 and solo not in _pool_pids()

    def test_worker_killed_between_calls_is_replaced_without_retry(self, caplog):
        parallel_map(_pid, [1, 2], PROCESS)
        victim = min(_pool_pids())
        os.kill(victim, signal.SIGKILL)
        assert not _wait_gone({victim})
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            pids = parallel_map(_pid, range(6), PROCESS)
        assert _retry_records(caplog) == []
        assert victim not in pids and os.getpid() not in pids
        assert set(pids) <= _pool_pids()

    def test_nested_fan_out_starts_its_own_pool(self):
        # In a child interpreter: a worker that reused its parent's pool
        # would hang, and the timeout turns that into a failure.
        out = _run_python(
            """
            import json, multiprocessing, os
            from repro.sim.parallel import ParallelConfig, parallel_map
            PROCESS = ParallelConfig(max_workers=2)
            def pid_and_square(x):
                return os.getpid(), x * x
            def nested(n):
                inner = parallel_map(pid_and_square, range(n), PROCESS)
                return os.getpid(), [v for _, v in inner], [p for p, _ in inner]
            outer = parallel_map(nested, [3, 4], PROCESS)
            workers = [p.pid for p in multiprocessing.active_children()]
            print(json.dumps([os.getpid(), workers, outer]))
            """
        )
        parent, workers, outer = json.loads(out)
        assert [values for _, values, _ in outer] == [[0, 1, 4], [0, 1, 4, 9]]
        for pid, _, inner_pids in outer:
            assert pid in workers
            assert inner_pids and not set(inner_pids) & set(workers + [parent])

    @pytest.mark.parametrize("ending", ["clean", "os._exit"])
    def test_workers_never_outlive_their_parent(self, ending):
        out = _run_python(
            f"""
            import multiprocessing, os
            from repro.sim.fleetsoa import FleetConfig, FleetSpec
            from repro.sim.parallel import ParallelConfig, fleet_soa_rounds
            spec = FleetSpec(
                network_sizes=[2, 2, 2, 2],
                protocols=[0, 1, 0, 1],
                period_s=[0.25] * 8,
                front_delay_s=[1e-3] * 8,
                link_delay_s=[2e-3] * 8,
                compute_j=[1e-6] * 8,
                radio_j=[1e-6] * 8,
                config=FleetConfig(seed=5),
            )
            fleet_soa_rounds(spec, 2, config=ParallelConfig(max_workers=2))
            print(" ".join(str(p.pid) for p in multiprocessing.active_children()))
            if {ending!r} == "os._exit":
                os._exit(0)
            """
        )
        workers = {int(pid) for pid in out.split()}
        assert len(workers) == 2
        assert not _wait_gone(workers, timeout_s=5.0)


class TestFleet:
    def test_reports_identical_serial_vs_process(self, fleet):
        serial = parallel_map(_bsn_report, fleet, SERIAL)
        parallel = parallel_map(_bsn_report, fleet, PROCESS)
        assert serial == parallel
        # Mixed protocols genuinely covered: MIMO removes TDMA contention.
        assert serial[1].worst_event_delay_s <= serial[0].worst_event_delay_s

    def test_simulations_identical_serial_vs_process(self, fleet):
        tasks = [(bsn, 20) for bsn in fleet]
        serial = parallel_map(_bsn_simulate, tasks, SERIAL)
        parallel = parallel_map(_bsn_simulate, tasks, PROCESS)
        assert serial == parallel
        assert len(serial) == len(fleet)

    def test_event_count_validated(self, fleet):
        with pytest.raises(ConfigurationError):
            parallel_map(_bsn_simulate, [(bsn, 0) for bsn in fleet], SERIAL)


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
        serial = fleet_soa_rounds(soa_spec, 4, config=_serial_shards(3))
        process = fleet_soa_rounds(soa_spec, 4, config=PROCESS)
        assert fleet_results_identical(direct, serial)
        assert fleet_results_identical(direct, process)

    def test_shard_count_does_not_change_the_result(self, soa_spec):
        from repro.sim.fleetsoa import fleet_results_identical

        one = fleet_soa_rounds(soa_spec, 3, config=_serial_shards(1))
        many = fleet_soa_rounds(soa_spec, 3, config=_serial_shards(6))
        oversubscribed = fleet_soa_rounds(soa_spec, 3, config=_serial_shards(50))
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
        sharded = fleet_soa_rounds(soa_spec, 6, policy=policy, config=PROCESS)
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


class TestCampaigns:
    def _tasks(self, metrics_pair):
        primary, _ = metrics_pair
        simulator = CrossEndSimulator(primary, period_s=0.25, seed=3)
        tasks = []
        for seed in derive_seeds(99, 3):
            campaign = FaultCampaign(
                [
                    BurstLoss(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
                    PayloadCorruption(0.01),
                    LinkOutage(start_event=50, n_events=20),
                ],
                seed=seed,
            )
            tasks.append((campaign, simulator, 200, ARQConfig(max_retries=3)))
        return tasks

    def test_reports_identical_serial_vs_process(self, metrics_pair):
        serial = parallel_map(_run_campaign, self._tasks(metrics_pair), SERIAL)
        parallel = parallel_map(_run_campaign, self._tasks(metrics_pair), PROCESS)
        assert _reports_equal(serial, parallel)

    def test_rerun_is_reproducible(self, metrics_pair):
        first = parallel_map(_run_campaign, self._tasks(metrics_pair), PROCESS)
        second = parallel_map(_run_campaign, self._tasks(metrics_pair), PROCESS)
        assert _reports_equal(first, second)


class TestSweepShared:
    """A heavyweight s-t template ships once per worker as ``shared=``."""

    @pytest.fixture(scope="class")
    def priced_template(self, request):
        """A picklable s-t graph template plus the natural price scale."""
        topo = request.getfixturevalue("tiny_topology")
        lib = request.getfixturevalue("energy_lib_90")
        cpu = request.getfixturevalue("cpu_model")
        link = WirelessLink("model3")
        gen = AutomaticXProGenerator(topo, lib, link, cpu)
        template = build_st_graph(topo, lib, link, cpu)
        return template, gen._initial_lambda()

    def test_shared_template_serial_matches_process(self, priced_template):
        template, lam0 = priced_template
        lams = [lam0 * f for f in (0.0, 0.02, 0.1, 0.5, 1.0, 4.0)]
        serial = parallel_map(_priced_cut, lams, SERIAL, shared=template)
        process = parallel_map(_priced_cut, lams, PROCESS, shared=template)
        assert repr(serial) == repr(process)
        # Same values a plain in-process loop over the ladder produces.
        assert serial == [_priced_cut(template, lam) for lam in lams]

    def test_process_workers_do_not_feed_back(self, priced_template):
        """Worker-side warm states never mutate the caller's template."""
        template, lam0 = priced_template
        before = template.stats.total_solves
        parallel_map(
            _priced_cut, [0.0, lam0, 2.0 * lam0], PROCESS, shared=template
        )
        assert template.stats.total_solves == before


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
