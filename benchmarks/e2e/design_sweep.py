"""``design_sweep``: the Automatic XPro Generator over a design space.

Closed loop, one client.  The space is 6 cases x 3 process nodes x 3
radio models x 4 computation-energy calibrations (0.5/1/2/4 x the
default) = 216 configurations, visited in a seed-shuffled order so any
prefix mixes them.  Each configuration gets a fresh generator and seven
``generate()`` calls: the paper's Eq. 4 limit, then six delay limits at
seed-drawn fractions of the band between the faster and the slower
single-end design (every limit in it is feasible, because both single-end
cuts are always candidates).  The first call builds the generator's s-t
graph template (cold); the other six re-solve it (warm).  The first pass
over all 216 configurations always completes, and the modelled metrics
cover exactly that pass.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import ARQ, Ledger, Setup, SpeedProbe, ratio, timings
from repro.core.generator import AutomaticXProGenerator
from repro.graph.cuts import aggregator_cut, sensor_cut
from repro.hw.energy import DEFAULT_CALIBRATION, EnergyLibrary
from repro.hw.framing import FramingConfig
from repro.hw.wireless import WirelessLink
from repro.sim.channel import GilbertElliottParams
from repro.sim.evaluate import PartitionMetrics, evaluate_partition, metrics_identical
from repro.signals.datasets import CASE_ORDER

NODES = ("130nm", "90nm", "45nm")
RADIOS = ("model1", "model2", "model3")
CALIBRATIONS = (0.5, 1.0, 2.0, 4.0)
LIMITS_PER_CONFIG = 6
REFERENCE_EVERY = 20
#: Probability that one frame gets through bounded ARQ on the average
#: Gilbert-Elliott channel; a design's delivered fraction is this to the
#: power of its frames per event.
FRAME_DELIVERY = ARQ.delivery_probability(GilbertElliottParams().stationary_loss_rate)
FRAMING = FramingConfig()


@dataclass
class Config:
    case: str
    radio: str
    lib: EnergyLibrary
    topology: object
    limits: List[Optional[float]]


@dataclass
class State:
    configs: List[Config]
    links: Dict[str, WirelessLink]
    cpu: object


def setup(su: Setup, seed: int, seconds: float) -> State:
    rng = np.random.default_rng(seed)
    links = {radio: WirelessLink(radio) for radio in RADIOS}
    built = {}
    for case, node, cal in itertools.product(CASE_ORDER, NODES, CALIBRATIONS):
        lib = EnergyLibrary(node, calibration=DEFAULT_CALIBRATION * cal)
        built[case, node, cal] = (lib, su.topology(case, lib))
    space = list(itertools.product(CASE_ORDER, NODES, RADIOS, CALIBRATIONS))
    order = rng.permutation(len(space))
    configs = []
    with su.stage("core.generator"):
        for index in order:
            case, node, radio, cal = space[index]
            lib, topology = built[case, node, cal]
            delays = [
                evaluate_partition(topology, cut(topology), lib, links[radio], su.cpu).delay_total_s
                for cut in (sensor_cut, aggregator_cut)
            ]
            lo, hi = min(delays), max(delays)
            fractions = rng.uniform(0.02, 0.98, LIMITS_PER_CONFIG)
            limits = [None] + [lo + float(f) * (hi - lo) for f in fractions]
            configs.append(Config(case, radio, lib, topology, limits))
    return State(configs, links, su.cpu)


def _frames_per_event(metrics) -> int:
    return sum(
        FRAMING.frame_count(-(-bits // 8))
        for bits in (metrics.crossing_bits_up, metrics.crossing_bits_down)
    )


def cold_reference(state: State, config: Config, limit: Optional[float]) -> PartitionMetrics:
    """The partition a generator without template or memo picks (untimed)."""
    return AutomaticXProGenerator(
        config.topology, config.lib, state.links[config.radio], state.cpu,
        warm_start=False, cache_size=0,
    ).generate(delay_limit_s=limit).metrics


def run(state: State, seconds: float, tracer, ledger: Ledger) -> dict:
    starts: List[float] = []
    latencies: List[float] = []
    cold: List[float] = []
    warm: List[float] = []
    kept: List[Tuple[Config, Optional[float], object]] = []
    modelled = {"energy_j": 0.0, "delay_s": 0.0, "air_bits": 0, "delivered": 0.0, "calls": 0}
    counts = {"candidates": 0, "cross": 0, "hits": 0, "misses": 0,
              "cold_solves": 0, "warm_solves": 0, "paths": 0}
    calls = 0
    probe = SpeedProbe()
    with tracer.span("run"):
        start = time.perf_counter()
        i = 0
        while i < len(state.configs) or time.perf_counter() - start < seconds:
            probe.poll()
            config = state.configs[i % len(state.configs)]
            config_begin = time.perf_counter()
            with tracer.span("config", rid=i):
                generator = AutomaticXProGenerator(
                    config.topology, config.lib, state.links[config.radio], state.cpu
                )
                for j, limit in enumerate(config.limits):
                    begin = time.perf_counter()
                    try:
                        with tracer.span("core.generator", items=1):
                            result = generator.generate(delay_limit_s=limit)
                    except Exception:
                        ledger.crash(f"config {i} call {j}")
                        continue
                    (warm if j else cold).append(time.perf_counter() - begin)
                    m = result.metrics
                    ledger.record(
                        m.delay_total_s <= result.delay_limit_s * (1 + 1e-9),
                        f"config {i} call {j}: result exceeds its delay limit",
                    )
                    counts["candidates"] += result.candidates_evaluated
                    counts["cross"] += result.partition.label == "cross"
                    if calls % REFERENCE_EVERY == 0:
                        kept.append((config, limit, m))
                    if i < len(state.configs):
                        modelled["calls"] += 1
                        modelled["energy_j"] += m.sensor_total_j
                        modelled["delay_s"] += m.delay_total_s
                        modelled["air_bits"] += m.crossing_bits_up + m.crossing_bits_down
                        modelled["delivered"] += FRAME_DELIVERY ** _frames_per_event(m)
                    calls += 1
                # A request is one configuration: a fresh generator and
                # its seven calls.
                starts.append(config_begin)
                latencies.append(time.perf_counter() - config_begin)
                cache, template = generator.evaluation_cache, generator.template
                counts["hits"] += cache.hits
                counts["misses"] += cache.misses
                if template is not None:
                    counts["cold_solves"] += template.stats.cold_solves
                    counts["warm_solves"] += template.stats.warm_solves
                    counts["paths"] += (
                        template.stats.cold_augmenting_paths
                        + template.stats.warm_augmenting_paths
                    )
            i += 1
        wall = time.perf_counter() - start

    with tracer.span("bench.check"):
        for config, limit, metrics in kept:
            try:
                ok = metrics_identical(cold_reference(state, config, limit), metrics)
            except Exception:
                ledger.crash(f"reference generator for {config.case}/{config.radio}")
                continue
            ledger.record(ok, f"{config.case}/{config.radio}: differs from the cold reference")

    n = modelled["calls"]
    layers = {}
    if tracer.enabled:
        busy = tracer.layers().get("core.generator", {}).get("busy_s", 0.0)
        solves = counts["cold_solves"] + counts["warm_solves"]
        layers = {
            "core.generator.busy_s": busy,
            "core.generator.share": busy / wall,
            "core.generator.candidates_per_call": ratio(counts["candidates"], calls),
            "core.generator.ms_per_call.cold": float(np.mean(cold)) * 1e3 if cold else 0.0,
            "core.generator.ms_per_call.warm": float(np.mean(warm)) * 1e3 if warm else 0.0,
            "core.generator.cross_cut_fraction": ratio(counts["cross"], calls),
            "sim.evaluate.cache_hit_ratio": ratio(
                counts["hits"], counts["hits"] + counts["misses"]
            ),
            "graph.stgraph.warm_solves": ratio(counts["warm_solves"], calls),
            "graph.stgraph.cold_solves": ratio(counts["cold_solves"], calls),
            "graph.stgraph.paths_per_solve": ratio(counts["paths"], solves),
        }
    return {
        **timings(calls, starts, latencies, wall, probe),
        "modelled": {
            "sensor_uj_per_event": ratio(modelled["energy_j"], n) * 1e6,
            "modelled_delay_ms": ratio(modelled["delay_s"], n) * 1e3,
            "air_bytes_per_event": ratio(modelled["air_bits"] / 8, n),
            "delivered_fraction": ratio(modelled["delivered"], n),
        },
        "layers": layers,
    }
