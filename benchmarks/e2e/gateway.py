"""``gateway``: a multi-tenant gateway ingesting framed wearable streams.

Open loop on a fixed tick schedule.  Six ``StreamPool``s, one per Table-1
case, each score windows of the case's segment length (hop 32,
``skip_stale``) with the trained engine through an ``EngineBackend``.
Every tick, each active stream delivers one Q16.16 frame through
``FrameIngestor.push_frames`` and then every pool ticks.  A frame holds
one tick period of samples at the case's nominal rate (its signal
generator's ``sample_rate``): 15 for ECG (250 Hz) and EEG (256 Hz), 30
for EMG (500 Hz).

The load generator prepares all traffic during set-up: frames are encoded
ahead of time, each frame goes through bounded ARQ on its stream's
Gilbert-Elliott channel (dropped frames show up as sequence gaps), and a
bit is flipped in 0.5% of the delivered frames for the CRC to reject.
Ticks are due every ``PERIOD_S`` whether or not the gateway kept up; a
window's latency runs from the due time of the tick that delivered its
last frame to its emission.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from common import (
    ARQ, NODE, RADIO, Ledger, Setup, SpeedProbe, arq_outcomes, percentile_ms, ratio, timings,
)
from repro.graph.cuts import aggregator_cut
from repro.hw.energy import EnergyLibrary
from repro.hw.framing import FramingConfig, decode_values, encode_frames, encode_values
from repro.hw.wireless import WirelessLink
from repro.sim.channel import GilbertElliottChannel
from repro.sim.evaluate import evaluate_partition
from repro.signals.datasets import CASE_ORDER
from repro.stream import EngineBackend, FrameIngestor, StreamPool, StreamSpec

#: With 16 streams per pool, about half busy at the host speeds seen
#: (0.55-0.9 of reference), so a stall's backlog drains within a few
#: ticks; at 40 ms the gateway ran 0.65-0.76 busy.
PERIOD_S = 0.060
HOP = 32
STREAMS_PER_POOL = 16
CORRUPT_FRACTION = 0.005
RESCORE_EVERY = 50
#: Room for one tick of EMG (120 B) in a single frame.
FRAMING = FramingConfig(max_payload_bytes=128)
#: A run is invalid when its last tenth of ticks started, on average,
#: more than this many periods late: the backlog was still growing.
BACKLOG_LIMIT_TICKS = 10
#: The speed probe runs this long before a tick is due, in idle time.
PROBE_LEAD_S = 0.003
#: The order in which a tick serves the pools (indices into CASE_ORDER):
#: C1, C2, E1, M1, E2, M2.  The ECG and EEG pools emit an eighth of the
#: windows each and the EMG pools a quarter each, so served in case order
#: the median window would sit on the step between E2's emission and
#: M1's, and jump from one to the other between seeds.  Served in this
#: order the median window is M1's own median.
POOL_ORDER = (0, 1, 2, 4, 3, 5)
#: ``latency_p50_ms`` is the median of this many equal runs of ticks' own
#: medians.  A host stall backs up the ticks after it: in twenty 10 s
#: runs one stall set its run's median 28% above the others, where it
#: now moves only its own block.
LATENCY_BLOCKS = 5


def frame_samples(data) -> int:
    """Samples one stream of ``data``'s case sends per tick period."""
    return round(data.spec.make_generator().sample_rate * PERIOD_S)


@dataclass
class Stream:
    """One wearable stream as the load generator prepared it."""

    ok: np.ndarray          # per sent frame: reached the pool intact
    delivered: np.ndarray   # per sent frame: got through ARQ
    tries: np.ndarray
    arq_delay_s: np.ndarray
    accepted: np.ndarray    # Q16.16 samples of the intact frames, in order


@dataclass
class State:
    engines: Dict[str, object]
    streams: List[List[Stream]]                         # [pool][stream]
    ticks: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]  # [tick][pool]
    n_ticks: int
    # Per pool:
    frame_samples: List[int]
    frame_bits: List[int]
    frame_energy_j: List[float]
    backend_delay_s: List[float]


class TimedBackend:
    """``EngineBackend`` whose batched scoring call is one traced span."""

    def __init__(self, engine, tracer) -> None:
        self.inner = EngineBackend(engine)
        self.tracer = tracer

    def validate_spec(self, spec: StreamSpec) -> None:
        self.inner.validate_spec(spec)

    def score_matrix(self, matrix: np.ndarray, levels: np.ndarray):
        with self.tracer.span("core.pipeline.predict_batch", items=len(matrix)):
            return self.inner.score_matrix(matrix, levels)


def setup(su: Setup, seed: int, seconds: float) -> State:
    per_pool = 2 if su.smoke else STREAMS_PER_POOL
    n_ticks = max(per_pool + 1, round(seconds / PERIOD_S))
    rng = np.random.default_rng(seed)
    lib, link = EnergyLibrary(NODE), WirelessLink(RADIO)
    samples = [frame_samples(su.datasets[case]) for case in CASE_ORDER]
    frame_bits = [
        (n * 4 + FRAMING.overhead_bits_per_frame // 8) * 8 + link.model.header_bits
        for n in samples
    ]
    backend_delay = []
    for case in CASE_ORDER:
        topology = su.topology(case, lib)
        with su.stage("core.generator"):
            metrics = evaluate_partition(topology, aggregator_cut(topology), lib, link, su.cpu)
        backend_delay.append(metrics.delay_back_s)

    streams: List[List[Stream]] = []
    ticks = [[None] * len(CASE_ORDER) for _ in range(n_ticks)]
    with su.stage("reference"):
        for p, case in enumerate(CASE_ORDER):
            data = su.datasets[case]
            on_air = frame_bits[p] / link.model.data_rate_bps
            pool_streams = []
            sent: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(n_ticks)]
            # Streams start on distinct ticks, so every seed loads the ticks
            # alike; the seed picks which stream starts when.
            phases = rng.permutation(per_pool)
            for s in range(per_pool):
                first = int(phases[s])
                n_frames = n_ticks - first
                need = n_frames * samples[p]
                rows = rng.integers(0, data.n_segments, need // data.segment_length + 2)
                offset = int(rng.integers(0, data.segment_length))
                chunks = data.segments[rows].ravel()[offset : offset + need]
                payloads = [encode_values(c) for c in chunks.reshape(n_frames, -1)]
                matrix, _ = encode_frames(payloads, np.arange(n_frames), FRAMING)
                channel = GilbertElliottChannel(seed=int(rng.integers(2**63)))
                lost = channel.outcome_block(n_frames * (ARQ.max_retries + 1))
                outcomes = arq_outcomes(lost, [on_air] * n_frames)
                delivered = np.asarray([o.delivered for o in outcomes])
                corrupt = delivered & (rng.random(n_frames) < CORRUPT_FRACTION)
                for j in np.nonzero(corrupt)[0]:
                    bit = int(rng.integers(matrix.shape[1] * 8))
                    matrix[j, bit // 8] ^= 1 << (bit % 8)
                for j in np.nonzero(delivered)[0]:
                    sent[first + j].append((s, matrix[j]))
                ok = delivered & ~corrupt
                pool_streams.append(Stream(
                    ok=ok,
                    delivered=delivered,
                    tries=np.asarray([o.tries for o in outcomes]),
                    arq_delay_s=np.asarray([o.delay_s for o in outcomes]),
                    accepted=np.concatenate(
                        [decode_values(payloads[j]) for j in np.nonzero(ok)[0]]
                        or [np.zeros(0)]
                    ),
                ))
            for k in range(n_ticks):
                sids = np.asarray([s for s, _ in sent[k]], dtype=np.int64)
                rows_k = [row for _, row in sent[k]]
                matrix = np.stack(rows_k) if rows_k else np.zeros((0, 0), dtype=np.uint8)
                ticks[k][p] = (sids, matrix, np.full(len(rows_k), matrix.shape[1]))
            streams.append(pool_streams)
    return State(
        engines=dict(su.engines),
        streams=streams,
        ticks=ticks,
        n_ticks=n_ticks,
        frame_samples=samples,
        frame_bits=frame_bits,
        frame_energy_j=[link.single_try_tx_energy_bits(bits) for bits in frame_bits],
        backend_delay_s=backend_delay,
    )


def _wait_until(due: float) -> None:
    """Sleep to just before ``due``, then spin, so ticks start on time."""
    slack = due - time.perf_counter() - 0.001
    if slack > 0:
        time.sleep(slack)
    while time.perf_counter() < due:
        pass


def run(state: State, seconds: float, tracer, ledger: Ledger) -> dict:
    pools, ingestors = [], []
    for p, case in enumerate(CASE_ORDER):
        engine = state.engines[case]
        spec = StreamSpec.homogeneous(
            len(state.streams[p]), engine.layout.segment_length, HOP
        )
        pool = StreamPool(spec, TimedBackend(engine, tracer), policy="skip_stale")
        pools.append(pool)
        ingestors.append(FrameIngestor(pool, FRAMING))
    outputs: List[list] = [[] for _ in pools]
    lateness = np.zeros(state.n_ticks)
    window_due: List[float] = []
    window_block: List[int] = []
    window_latency: List[float] = []
    window_count: List[int] = []
    busy = 0.0
    probe = SpeedProbe()
    with tracer.span("run"):
        start = time.perf_counter()
        for k in range(state.n_ticks):
            due = start + k * PERIOD_S
            if time.perf_counter() < due:
                with tracer.span("loadgen.idle"):
                    # Probe late in the idle gap, away from the last tick.
                    _wait_until(due - PROBE_LEAD_S)
                    probe.poll()
                    _wait_until(due)
            begin = time.perf_counter()
            lateness[k] = begin - due
            emitted = []
            with tracer.span("tick", rid=k):
                try:
                    for p in POOL_ORDER:
                        pool = pools[p]
                        sids, matrix, lengths = state.ticks[k][p]
                        if len(sids):
                            with tracer.span("stream.ingest", items=len(sids)):
                                ingestors[p].push_frames(sids, matrix, lengths)
                        with tracer.span("stream.engine.tick"):
                            result = pool.tick()
                        if len(result):
                            emitted.append((time.perf_counter() - due, len(result)))
                            outputs[p].append(result)
                    ledger.record(True, "")
                except Exception:
                    ledger.crash(f"tick {k}")
            busy += time.perf_counter() - begin
            for latency, count in emitted:
                window_due.append(due)
                window_block.append(k * LATENCY_BLOCKS // state.n_ticks)
                window_latency.append(latency)
                window_count.append(count)
        wall = time.perf_counter() - start

    tail = lateness[-max(1, state.n_ticks // 10):]
    ledger.record(
        float(tail.mean()) <= BACKLOG_LIMIT_TICKS * PERIOD_S,
        "backlog grew without bound: the gateway fell behind its tick "
        "schedule, so latency is not valid",
    )
    with tracer.span("bench.check"):
        results = [pool.result_from(out) for pool, out in zip(pools, outputs)]
        try:
            totals = _check(state, pools, ingestors, results, ledger)
        except Exception:
            ledger.crash("end-of-run checks")
            totals = {"energy_j": 0.0, "air_bits": 0, "delay_s": 0.0,
                      "frames_ok": 0, "frames_sent": 0}
    windows = int(sum(r.n_windows for r in results))
    out = timings(
        windows,
        np.repeat(window_due, window_count),
        np.repeat(window_latency, window_count),
        wall,
        probe,
        blocks=np.repeat(window_block, window_count),
    )
    # The tick schedule, not the calibrated work, sets the throughput.
    out["throughput_per_s"] = windows / wall
    out["work_s"] = busy * out["diagnostic"]["bench.speed_scale"]
    return {
        **out,
        "modelled": {
            "sensor_uj_per_event": ratio(totals["energy_j"], windows) * 1e6,
            "modelled_delay_ms": ratio(totals["delay_s"], windows) * 1e3,
            "air_bytes_per_event": ratio(totals["air_bits"], windows) / 8,
            "delivered_fraction": ratio(totals["frames_ok"], totals["frames_sent"]),
        },
        "layers": (
            _layers(tracer, wall, busy, lateness, pools, ingestors, results)
            if tracer.enabled else {}
        ),
    }


def _check(state, pools, ingestors, results, ledger: Ledger) -> Dict[str, float]:
    """End-of-run checks against what the load generator sent."""
    totals = {"energy_j": 0.0, "air_bits": 0, "delay_s": 0.0, "frames_ok": 0, "frames_sent": 0}
    for p, case in enumerate(CASE_ORDER):
        pool, ingest, result = pools[p], ingestors[p], results[p]
        streams = state.streams[p]
        samples = state.frame_samples[p]
        pushed = sum(len(state.ticks[k][p][0]) for k in range(state.n_ticks))
        ledger.record(
            int(ingest.frames_ok.sum() + ingest.frames_corrupt.sum()
                + ingest.frames_duplicate.sum()) == pushed,
            f"{case}: frames pushed != ok + corrupt + duplicate",
        )
        want_ok = np.asarray([int(st.ok.sum()) for st in streams])
        want_bad = np.asarray([int((st.delivered & ~st.ok).sum()) for st in streams])
        ledger.record(
            np.array_equal(ingest.frames_ok, want_ok)
            and np.array_equal(ingest.frames_corrupt, want_bad),
            f"{case}: intact/corrupt frame counts differ from the load generator",
        )
        ledger.record(
            np.array_equal(pool.accepted_samples, samples * ingest.frames_ok),
            f"{case}: accepted samples != {samples} x intact frames",
        )
        window, hop = pool.spec.windows, pool.spec.hops
        formed = np.where(
            pool.written >= window, (pool.written - window) // hop + 1, 0
        )
        emitted = np.bincount(result.streams, minlength=len(streams))
        ledger.record(
            np.array_equal(emitted + result.skipped_windows, formed),
            f"{case}: windows emitted + skipped != windows formed",
        )
        engine = state.engines[case]
        w = int(window[0])
        for row in range(0, result.n_windows, RESCORE_EVERY):
            s, idx = int(result.streams[row]), int(result.indices[row])
            lo = idx * HOP
            expected = streams[s].accepted[lo : lo + w]
            ledger.record(
                int(result.end_seq[row]) == lo + w
                and len(expected) == w
                and engine.predict_segment(expected) == int(result.decisions[row]),
                f"{case}: window {idx} of stream {s} differs from predict_segment",
            )
        for s, st in enumerate(streams):
            tries = int(st.tries.sum())
            totals["energy_j"] += tries * state.frame_energy_j[p]
            totals["air_bits"] += tries * state.frame_bits[p]
            totals["frames_sent"] += len(st.ok)
            totals["frames_ok"] += int(st.ok.sum())
            # The intact frame holding each emitted window's last sample.
            mine = result.streams == s
            last_frame = (result.end_seq[mine] - 1) // samples
            sent_index = np.nonzero(st.ok)[0][last_frame]
            totals["delay_s"] += float(
                (st.arq_delay_s[sent_index] + state.backend_delay_s[p]).sum()
            )
    return totals


def _layers(tracer, wall, busy, lateness, pools, ingestors, results) -> Dict[str, float]:
    layers = tracer.layers()

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0)

    predict = layers.get("core.pipeline.predict_batch", {})
    return {
        "stream.ingest.busy_s": get("stream.ingest", "busy_s"),
        "stream.ingest.share": get("stream.ingest", "busy_s") / wall,
        "stream.ingest.us_per_frame": get("stream.ingest", "us_per_item"),
        "stream.ingest.frames_corrupt": float(sum(i.frames_corrupt.sum() for i in ingestors)),
        "stream.ingest.sequence_gaps": float(sum(i.sequence_gaps.sum() for i in ingestors)),
        "stream.ingest.frames_missing": float(sum(i.frames_missing.sum() for i in ingestors)),
        "stream.engine.tick.self_s": get("stream.engine.tick", "self_s"),
        "stream.engine.tick.share": get("stream.engine.tick", "self_s") / wall,
        "stream.engine.windows": float(sum(r.n_windows for r in results)),
        "stream.engine.skipped_windows": float(sum(p.skipped_windows.sum() for p in pools)),
        "core.pipeline.predict_batch.busy_s": predict.get("busy_s", 0.0),
        "core.pipeline.predict_batch.share": predict.get("busy_s", 0.0) / wall,
        "core.pipeline.predict_batch.us_per_window": predict.get("us_per_item", 0.0),
        "core.pipeline.predict_batch.windows_per_call": ratio(
            predict.get("items", 0), predict.get("calls", 0)
        ),
        "loadgen.utilization": busy / wall,
        "loadgen.lateness_p99_ms": percentile_ms(lateness, 99),
        "loadgen.max_backlog_ticks": float(np.floor(lateness.max() / PERIOD_S)),
    }
