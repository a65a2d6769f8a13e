"""``crossend``: segments through cells, framing, a lossy link and back.

Closed loop, one client.  Eighteen devices (six Table-1 cases x three
cuts: in-sensor, in-aggregator and the generator's Eq. 4 XPro cut at
90 nm / model2) take turns sending requests of eight segments.  Per
segment the device runs ``CrossEndEngine.classify``; per request it
serialises every segment's uplink port values to Q16.16, fragments them
into <= 64-byte frames, encodes the frames with CRC, and sends each frame
through bounded ARQ against its own Gilbert-Elliott channel.  Frames that
arrive are decoded and reassembled.

The engine keeps the crossing values internal, so the payload values come
from the monolithic ``CellTopology.execute`` of the same segment, computed
during set-up together with the references.  Cell execution is
deterministic, so they are the values the engine moved across the cut.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import ARQ, RADIO, Ledger, Setup, SpeedProbe, arq_outcomes, ratio, timings
from repro.cells.cell import PortRef
from repro.core.engine import CrossEndEngine
from repro.core.partition import Partition
from repro.graph.cuts import aggregator_cut, sensor_cut
from repro.hw.framing import (
    FramingConfig,
    decode_frames,
    decode_values,
    decode_values_scalar,
    encode_frames,
    encode_values,
    encode_values_scalar,
)
from repro.hw.wireless import WirelessLink
from repro.sim.channel import GilbertElliottChannel
from repro.sim.evaluate import PartitionMetrics
from repro.signals.datasets import CASE_ORDER

CUTS = ("sensor", "aggregator", "xpro")
REQUEST_SEGMENTS = 8
FRAMING = FramingConfig(max_payload_bytes=64, crc=True)
TRIES = ARQ.max_retries + 1


@dataclass
class Device:
    """One (case, cut) sensor node and what set-up knows about it."""

    case: str
    cut: str
    engine: CrossEndEngine
    metrics: PartitionMetrics
    channel_seed: int
    ports: Tuple[PortRef, ...] = ()
    payloads: List[np.ndarray] = field(default_factory=list)
    oracle: List[np.ndarray] = field(default_factory=list)


@dataclass
class State:
    devices: List[Device]
    segments: Dict[str, np.ndarray]
    expected: Dict[str, np.ndarray]
    schedule_seed: int
    prefix: int
    link: WirelessLink


def setup(su: Setup, seed: int, seconds: float) -> State:
    pool_rows, prefix = (8, 18) if su.smoke else (64, 432)
    designs = su.xpro_designs()
    rng = np.random.default_rng(seed)
    seeds = np.random.SeedSequence(seed).spawn(len(CASE_ORDER) * len(CUTS) + 1)
    segments, expected, devices = {}, {}, []
    for case in CASE_ORDER:
        rows = rng.choice(su.datasets[case].n_segments, pool_rows, replace=False)
        segments[case] = su.datasets[case].segments[rows]
        design = designs[case]
        topology = design.topology
        cuts = {
            "sensor": sensor_cut(topology),
            "aggregator": aggregator_cut(topology),
            "xpro": design.xpro.partition.in_sensor,
        }
        for cut in CUTS:
            in_sensor = frozenset(cuts[cut])
            with su.stage("core.generator"):
                metrics = design.generator.evaluate(in_sensor)
            engine = CrossEndEngine(topology, Partition(in_sensor=in_sensor, label=cut))
            child = seeds[len(devices)].generate_state(1)[0]
            devices.append(Device(case, cut, engine, metrics, int(child)))
        with su.stage("reference"):
            values = [topology.execute(seg) for seg in segments[case]]
            expected[case] = np.asarray(
                [int(float(np.atleast_1d(v[topology.result])[0]) > 0) for v in values]
            )
            for device in devices[-len(CUTS):]:
                device.ports = device.engine.classify(segments[case][0]).uplink_ports
                for v in values:
                    x = np.concatenate([np.ravel(v[p]) for p in device.ports])
                    device.payloads.append(x.astype(np.float64))
                    device.oracle.append(decode_values_scalar(encode_values_scalar(x)))
    schedule_seed = int(seeds[-1].generate_state(1)[0])
    return State(devices, segments, expected, schedule_seed, prefix, WirelessLink(RADIO))


@dataclass
class Totals:
    """Modelled sums over the fixed request prefix."""

    segments: int = 0
    delivered: int = 0
    energy_j: float = 0.0
    delay_s: float = 0.0
    air_bits: int = 0


@dataclass
class Wire:
    """Whole-run frame counters: ``frames`` counts encoded rows, the
    others count ARQ outcomes."""

    frames: int = 0
    delivered: int = 0
    dropped: int = 0
    tries: int = 0
    dropped_tries: int = 0


def _serve(
    state: State,
    device: Device,
    channel: GilbertElliottChannel,
    seq0: int,
    picks: np.ndarray,
    tracer,
    wire: Wire,
    totals: Optional[Totals],
) -> Tuple[int, List[Optional[str]]]:
    """One request; returns frames sent and a problem (or None) per segment."""
    problems: List[Optional[str]] = [None] * len(picks)
    engine_span = f"core.engine.{device.cut}"
    for j, i in enumerate(picks):
        with tracer.span(engine_span, items=1):
            result = device.engine.classify(state.segments[device.case][i])
        if result.prediction != state.expected[device.case][i]:
            problems[j] = "prediction differs from CellTopology.execute"
        elif result.uplink_ports != device.ports:
            problems[j] = "uplink ports differ from set-up"

    with tracer.span("hw.framing.encode", items=len(picks)):
        chunks: List[bytes] = []
        last: List[bool] = []
        owner: List[int] = []
        for j, i in enumerate(picks):
            payload = encode_values(device.payloads[i])
            step = FRAMING.max_payload_bytes
            parts = [payload[k : k + step] for k in range(0, len(payload), step)]
            chunks.extend(parts)
            last.extend([False] * (len(parts) - 1) + [True])
            owner.extend([j] * len(parts))
        n = len(chunks)
        matrix, lengths = encode_frames(chunks, np.arange(seq0, seq0 + n), FRAMING, last)

    bits = lengths * 8 + state.link.model.header_bits
    with tracer.span("sim.channel", items=n):
        lost = channel.outcome_block(n * TRIES)
    with tracer.span("hw.arq", items=n):
        outcomes = arq_outcomes(lost, bits / state.link.model.data_rate_bps)
    delivered = np.fromiter((o.delivered for o in outcomes), dtype=bool, count=n)
    tries = np.fromiter((o.tries for o in outcomes), dtype=np.int64, count=n)
    owner_arr = np.asarray(owner)
    complete = np.ones(len(picks), dtype=bool)
    complete[owner_arr[~delivered]] = False

    with tracer.span("hw.framing.decode", items=int(complete.sum())):
        keep = complete[owner_arr]
        batch = decode_frames(matrix[keep], FRAMING, lengths[keep])
        kept_owner = owner_arr[keep]
        decoded = {
            int(j): decode_values(
                b"".join(batch.payloads[k] or b"" for k in np.nonzero(kept_owner == j)[0])
            )
            for j in np.nonzero(complete)[0]
        }
    if not batch.ok.all():
        problems = [p or "an intact frame failed to decode" for p in problems]
    for j, values in decoded.items():
        if problems[j] is None and not np.array_equal(values, device.oracle[picks[j]]):
            problems[j] = "decoded values differ from the scalar codec"

    wire.frames += len(lengths)
    wire.delivered += int(delivered.sum())
    wire.dropped += len(outcomes) - int(delivered.sum())
    wire.tries += int(tries.sum())
    wire.dropped_tries += int(tries[~delivered].sum())
    if totals is not None:
        m = device.metrics
        delays = np.fromiter((o.delay_s for o in outcomes), dtype=np.float64, count=n)
        for j in range(len(picks)):
            mine = owner_arr == j
            totals.segments += 1
            totals.delivered += int(complete[j])
            totals.energy_j += m.sensor_compute_j + m.sensor_rx_j + sum(
                int(t) * state.link.single_try_tx_energy_bits(int(b))
                for t, b in zip(tries[mine], bits[mine])
            )
            totals.delay_s += m.delay_front_s + m.delay_back_s + float(delays[mine].sum())
            totals.air_bits += int((tries[mine] * bits[mine]).sum())
    return n, problems


def run(state: State, seconds: float, tracer, ledger: Ledger) -> dict:
    channels = [GilbertElliottChannel(seed=d.channel_seed) for d in state.devices]
    seqs = [0] * len(state.devices)
    schedule = np.random.default_rng(state.schedule_seed)
    pool_rows = len(next(iter(state.segments.values())))
    totals, wire = Totals(), Wire()
    starts: List[float] = []
    latencies: List[float] = []
    probe = SpeedProbe()
    with tracer.span("run"):
        start = time.perf_counter()
        r = 0
        while r < state.prefix or time.perf_counter() - start < seconds:
            probe.poll()
            d = r % len(state.devices)
            picks = schedule.integers(0, pool_rows, REQUEST_SEGMENTS)
            begin = time.perf_counter()
            with tracer.span("request", rid=r):
                try:
                    sent, problems = _serve(
                        state, state.devices[d], channels[d], seqs[d], picks, tracer,
                        wire, totals if r < state.prefix else None,
                    )
                    seqs[d] += sent
                    for problem in problems:
                        ledger.record(problem is None, f"request {r}: {problem}")
                except Exception:
                    ledger.crash(f"request {r}", REQUEST_SEGMENTS)
            starts.append(begin)
            latencies.append(time.perf_counter() - begin)
            r += 1
        wall = time.perf_counter() - start
    segments = r * REQUEST_SEGMENTS
    ledger.record(
        wire.frames == wire.delivered + wire.dropped
        and wire.dropped_tries == TRIES * wire.dropped
        and wire.frames <= wire.tries <= TRIES * wire.frames,
        "frames sent != delivered + dropped, or tries outside the ARQ budget",
    )
    return {
        **timings(segments, starts, latencies, wall, probe),
        "modelled": {
            "sensor_uj_per_event": ratio(totals.energy_j, totals.segments) * 1e6,
            "modelled_delay_ms": ratio(totals.delay_s, totals.segments) * 1e3,
            "air_bytes_per_event": ratio(totals.air_bits / 8, totals.segments),
            "delivered_fraction": ratio(totals.delivered, totals.segments),
        },
        "layers": _layers(tracer, wall, segments, wire) if tracer.enabled else {},
    }


def _layers(tracer, wall: float, segments: int, wire: Wire) -> Dict[str, float]:
    layers = tracer.layers()

    def busy(name: str) -> float:
        return layers.get(name, {}).get("busy_s", 0.0)

    engine = sum(busy(f"core.engine.{cut}") for cut in CUTS)
    glue = sum(layers.get(name, {}).get("self_s", 0.0) for name in ("run", "request"))
    out = {
        "core.engine.busy_s": engine,
        "core.engine.share": engine / wall,
        "core.engine.us_per_segment": engine / segments * 1e6,
        "hw.framing.encode.busy_s": busy("hw.framing.encode"),
        "hw.framing.encode.share": busy("hw.framing.encode") / wall,
        "hw.framing.decode.busy_s": busy("hw.framing.decode"),
        "hw.framing.decode.share": busy("hw.framing.decode") / wall,
        "hw.framing.frames_per_segment": wire.frames / segments,
        "sim.channel.busy_s": busy("sim.channel"),
        "hw.arq.busy_s": busy("hw.arq"),
        "hw.arq.tries_per_frame": ratio(wire.tries, wire.frames),
        "hw.arq.drop_ratio": ratio(wire.dropped, wire.frames),
        "bench.glue.share": glue / wall,
    }
    for cut in CUTS:
        out[f"core.engine.us_per_segment.{cut}"] = layers.get(
            f"core.engine.{cut}", {}
        ).get("us_per_item", 0.0)
    return out
