"""``fleet``: supervised population-scale fleet rounds on two workers.

Closed loop, one client.  The fleet is 500 body-sensor networks of 8
devices, alternating TDMA and MIMO.  Each device runs one of the six
cases' XPro designs (seed-drawn), which sets its per-event front-end
delay, link delay, compute energy and radio energy.  Every call is one
``fleet_soa_rounds`` of 10 supervision rounds under
``HealthPolicy()`` on two worker processes, with its own fleet seed.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from common import Ledger, Setup, SpeedProbe, ratio, timings
from repro.signals.datasets import CASE_ORDER
from repro.sim.fleetsoa import (
    PROTOCOL_IDS,
    FleetConfig,
    FleetResult,
    FleetSpec,
    fleet_results_identical,
    simulate_fleet_soa,
)
from repro.sim.parallel import ParallelConfig, fleet_soa_rounds
from repro.sim.supervise import HealthPolicy

DEVICES_PER_NETWORK = 8
PERIOD_S = 0.25
WORKERS = ParallelConfig(max_workers=2)
POLICY = HealthPolicy()


@dataclass
class State:
    n_networks: int
    rounds: int
    columns: Dict[str, np.ndarray]
    air_bits: np.ndarray       # per device, on-air bits of one attempt
    seed: int


def setup(su: Setup, seed: int, seconds: float) -> State:
    n_networks, rounds = (40, 3) if su.smoke else (500, 10)
    designs = su.xpro_designs()
    metrics = [designs[case].xpro.metrics for case in CASE_ORDER]
    rng = np.random.default_rng(seed)
    case_of = rng.integers(0, len(CASE_ORDER), n_networks * DEVICES_PER_NETWORK)

    def column(value) -> np.ndarray:
        return np.asarray([value(m) for m in metrics], dtype=np.float64)[case_of]

    columns = {
        "front_delay_s": column(lambda m: m.delay_front_s),
        "link_delay_s": column(lambda m: m.delay_link_s),
        "compute_j": column(lambda m: m.sensor_compute_j),
        "radio_j": column(lambda m: m.sensor_tx_j + m.sensor_rx_j),
    }
    air_bits = column(lambda m: m.crossing_bits_up + m.crossing_bits_down)
    return State(n_networks, rounds, columns, air_bits, seed)


def _spec(state: State, call: int) -> FleetSpec:
    seed = int(np.random.SeedSequence([state.seed, call]).generate_state(1)[0])
    n_devices = state.n_networks * DEVICES_PER_NETWORK
    return FleetSpec(
        network_sizes=[DEVICES_PER_NETWORK] * state.n_networks,
        protocols=[PROTOCOL_IDS["tdma"], PROTOCOL_IDS["mimo"]] * (state.n_networks // 2)
        + [PROTOCOL_IDS["tdma"]] * (state.n_networks % 2),
        period_s=np.full(n_devices, PERIOD_S),
        config=FleetConfig(events_per_round=4, max_retries=2, seed=seed),
        **state.columns,
    )


def _device_slice(result: FleetResult, lo: int, hi: int) -> FleetResult:
    """Devices ``[lo, hi)`` of a fleet result."""
    parts = {}
    for f in dataclasses.fields(FleetResult):
        value = getattr(result, f.name)
        if f.name == "availability":
            value = value[:, lo:hi]
        elif isinstance(value, (np.ndarray, list)):
            value = value[lo:hi]
        parts[f.name] = value
    return FleetResult(**parts)


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def run(state: State, seconds: float, tracer, ledger: Ledger) -> dict:
    starts: List[float] = []
    latencies: List[float] = []
    first = None
    offered = attempts = 0
    probe = SpeedProbe()
    with tracer.span("run"):
        start = time.perf_counter()
        call = 0
        while call < 1 or time.perf_counter() - start < seconds:
            probe.poll()
            begin = time.perf_counter()
            with tracer.span("call", rid=call):
                spec = _spec(state, call)
                try:
                    with tracer.span(
                        "sim.parallel.fleet_soa_rounds",
                        items=spec.n_devices * state.rounds,
                    ):
                        result = fleet_soa_rounds(spec, state.rounds, POLICY, WORKERS)
                    balance = int(result.offered.sum()) == int(
                        result.delivered.sum() + result.dropped.sum() + result.pending.sum()
                    )
                    ledger.record(balance, f"call {call}: offered != delivered + dropped + pending")
                    offered += int(result.offered.sum())
                    attempts += int(result.attempts.sum())
                    if first is None:
                        first = (spec, result)
                except Exception:
                    ledger.crash(f"call {call}")
            starts.append(begin)
            latencies.append(time.perf_counter() - begin)
            call += 1
        wall = time.perf_counter() - start

    modelled = dict.fromkeys(
        ("sensor_uj_per_event", "modelled_delay_ms", "air_bytes_per_event", "delivered_fraction"),
        0.0,
    )
    layers: Dict[str, float] = {}
    if first is not None:
        spec, result = first
        n = int(result.offered.sum())
        modelled = {
            "sensor_uj_per_event": float(result.energy_j.sum()) / n * 1e6,
            "modelled_delay_ms": float(result.latency_sum_s.sum())
            / int(result.latency_events.sum()) * 1e3,
            "air_bytes_per_event": float((result.attempts * state.air_bits).sum()) / 8 / n,
            "delivered_fraction": int(result.delivered.sum()) / n,
        }
        # A seed-chosen 1/16 of the networks, simulated serially on its own,
        # must match the same devices of the parallel run bit for bit.
        share = max(1, state.n_networks // 16)
        lo = int(np.random.default_rng(state.seed).integers(0, state.n_networks - share + 1))
        d = DEVICES_PER_NETWORK
        with tracer.span("bench.check"):
            try:
                alone = simulate_fleet_soa(
                    spec.slice_networks(lo, lo + share), state.rounds, policy=POLICY
                )
                same = fleet_results_identical(
                    alone, _device_slice(result, lo * d, (lo + share) * d)
                )
            except Exception:
                ledger.crash("serial slice reference")
            else:
                ledger.record(
                    same, f"networks [{lo}, {lo + share}) differ from their serial simulation"
                )
        if tracer.enabled:
            layers = _layers(tracer, state, wall, spec, result, offered, attempts)
    items = call * state.n_networks * DEVICES_PER_NETWORK * state.rounds
    return {
        **timings(items, starts, latencies, wall, probe),
        "modelled": modelled,
        "layers": layers,
    }


def _layers(tracer, state, wall, spec, result, offered, attempts) -> Dict[str, float]:
    row = tracer.layers()["sim.parallel.fleet_soa_rounds"]
    busy = row["busy_s"]
    # Supervision and fan-out costs, from side runs on a quarter of the
    # first call's fleet.
    quarter = spec.slice_networks(0, max(1, state.n_networks // 4))
    with tracer.span("bench.side_runs"):
        supervised = _timed(simulate_fleet_soa, quarter, state.rounds, policy=POLICY)
        bare = _timed(simulate_fleet_soa, quarter, state.rounds)
        parallel = _timed(fleet_soa_rounds, quarter, state.rounds, POLICY, WORKERS)
    return {
        "sim.parallel.fleet_soa_rounds.busy_s": busy,
        "sim.parallel.fleet_soa_rounds.share": busy / wall,
        "sim.fleetsoa.us_per_device_round": row["us_per_item"],
        "sim.fleetsoa.attempts_per_offered": ratio(attempts, offered),
        "sim.supervise.quarantines": float(result.quarantines.sum()),
        "sim.supervise.est_share": 1.0 - bare / supervised,
        "sim.parallel.efficiency": supervised / (WORKERS.max_workers * parallel),
    }
