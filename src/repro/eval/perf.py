"""Scalar-vs-batch performance harness and the perf-regression gate.

Times the classification hot path both ways — the per-event scalar
reference and the vectorised batch path — for each stage of the pipeline:

- **extraction**: :meth:`FeatureLayout.extract_matrix` (per-row Python
  loop) vs :func:`repro.dsp.batch.batch_extract_matrix`;
- **dwt**: per-row :func:`~repro.dsp.wavelet.dwt_multilevel` vs the
  batched pyramid :func:`~repro.dsp.wavelet.dwt_multilevel_batch`;
- **inference**: per-event ensemble prediction (one tiny Gram matrix per
  member per event) vs :class:`~repro.ml.inference.EnsembleBatchScorer`
  (one Gram matrix per member per batch);
- **end_to_end**: :meth:`TrainedAnalyticEngine.predict_segment` in a loop
  vs :meth:`TrainedAnalyticEngine.predict_batch` — raw segments to
  decisions;
- **generator**: a delay-limit ladder of constrained
  :meth:`AutomaticXProGenerator.generate` calls — the legacy per-solve
  cold path (graph rebuilt, Dinic from scratch, no memo) vs the warm
  fast path (shared s-t graph template, residual warm-starts,
  partition-evaluation memo);
- **wire**: the wire data plane — per-value Q16.16 packing, per-byte
  CRC-16 and per-frame encode/decode (:mod:`repro.hw.framing` scalar
  reference) vs the batch codec (``encode_values``/``encode_frames``/
  ``decode_frames``/``decode_values``); its equivalence flag also
  asserts a seeded scalar-vs-fast :class:`~repro.sim.faults.
  FaultCampaign` byte-level run replays bit-identically;
- **fleet**: population-scale fleet rounds — the per-object scalar twin
  (:func:`~repro.sim.fleetsoa.simulate_fleet_scalar`, real
  :class:`~repro.sim.channel.GilbertElliottChannel` objects stepped one
  slot at a time) vs the struct-of-arrays engine
  (:func:`~repro.sim.fleetsoa.simulate_fleet_soa`, one ndarray per state
  field across 10^4 devices, block channel draws); its equivalence flag
  asserts the two paths are **bit-identical** (NaN-aware, same RNG draw
  order) via :func:`~repro.sim.fleetsoa.fleet_results_identical`;
- **streaming**: live multi-stream ingestion — the per-stream scalar twin
  (:func:`~repro.stream.twin.run_twin`, Python ring buffers, per-sample
  appends, one :class:`~repro.dsp.streaming.StreamingMoments` /
  :class:`~repro.dsp.streaming.CrossingCounter` pass per window) vs the
  struct-of-arrays pool (:func:`~repro.stream.engine.run_stream_pool`,
  one ring block across ≥1000 concurrent streams, one batched scoring
  call per tick); its equivalence flag asserts **bit-identical**
  per-window scores, decisions and backpressure counters via
  :func:`~repro.stream.engine.stream_results_identical`, and the case
  carries per-window p50/p99 tick latency extras;
- **training**: the §4.4 subspace training protocol (``n_draws`` random
  subspaces × 10-fold CV each, final refits, member selection, fusion)
  — the pinned reference twin (fresh Gram per fold,
  :meth:`~repro.ml.svm.SVMClassifier.fit_reference`'s per-index KKT
  scan) vs the fast path (one fold-sliced Gram per draw through
  :meth:`~repro.ml.kernels.Kernel.subspace_gram`, the cached-error
  screened SMO of :meth:`~repro.ml.svm.SVMClassifier.fit`); its
  equivalence flag asserts **decision-identical ensembles** — same
  retained subsets, bitwise-equal dual coefficients and biases, same
  ``used_feature_indices`` and identical predictions — on the timed
  pair and (full mode) across all six Table-1 cases.

Every benchmark first asserts the two paths agree (decision-identical or
within float precision), so a timing run is also an equivalence check.

The report is serialised to ``benchmarks/results/BENCH_perf.json``
(schema documented in ``docs/PERFORMANCE.md``).  CI regenerates the
report in fast mode and feeds it to :func:`compare_reports`, which fails
the build when any *tracked* metric — the machine-portable speedup
ratios — regresses by more than 25% against the committed baseline.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.core.layout import FeatureLayout
from repro.core.pipeline import TrainingConfig, train_analytic_engine
from repro.dsp.batch import batch_extract_matrix
from repro.dsp.wavelet import dwt_multilevel, dwt_multilevel_batch
from repro.errors import ConfigurationError, PerfRegressionError
from repro.signals.datasets import load_case

#: Report schema identifier (bump on breaking layout changes).
SCHEMA = "xpro-bench-perf/1"

#: Metrics the CI regression gate compares against the committed baseline.
#: Only speedup *ratios* are tracked: absolute segments/s depends on the
#: machine, while the scalar/batch ratio is a property of the code.
TRACKED_METRICS = (
    "extraction.speedup",
    "dwt.speedup",
    "inference.speedup",
    "end_to_end.speedup",
    "generator.speedup",
    "wire.speedup",
    "fleet.speedup",
    "streaming.speedup",
    "training.speedup",
)

#: Stage names accepted by :func:`collect_perf_report`'s ``stages`` filter.
ALL_STAGES = (
    "extraction",
    "dwt",
    "inference",
    "end_to_end",
    "generator",
    "wire",
    "fleet",
    "streaming",
    "training",
)

#: Allowed fractional regression on a tracked metric before the gate fails.
DEFAULT_THRESHOLD = 0.25

#: Safety margin applied to tracked ratios when a report is used as a
#: baseline: the gate compares fresh measurements against
#: ``measured * GATE_MARGIN``, so timer noise (±30-40% on busy runners)
#: passes while real regressions — losing vectorisation collapses every
#: tracked ratio to ~1x — still fail by an order of magnitude.
GATE_MARGIN = 0.6

#: Training scale used by the inference/end-to-end benches: small enough to
#: train in seconds, big enough to retain several members and realistic
#: support-vector counts.
_BENCH_TRAINING = TrainingConfig(
    subspace_dim=6, n_draws=8, keep_fraction=0.25, seed=7
)


@dataclass(frozen=True)
class PerfCase:
    """One scalar-vs-batch timing comparison.

    Attributes:
        name: Stage name (``"extraction"``, ``"dwt"``, ...).
        n_items: Work items (segments/events) processed per timed pass.
        scalar_wall_s: Best wall time of the scalar reference path.
        batch_wall_s: Best wall time of the vectorised batch path.
        equivalent: Whether the two paths agreed on this run's data.
        extras: Stage-specific metrics, reported under
            ``"<name>.<key>"`` in the metrics dictionary (e.g. the
            streaming stage's per-window tick-latency percentiles).
            Extras are informational unless listed in
            :data:`TRACKED_METRICS`.
    """

    name: str
    n_items: int
    scalar_wall_s: float
    batch_wall_s: float
    equivalent: bool
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def scalar_per_s(self) -> float:
        """Scalar-path throughput in items per second."""
        return self.n_items / self.scalar_wall_s

    @property
    def batch_per_s(self) -> float:
        """Batch-path throughput in items per second."""
        return self.n_items / self.batch_wall_s

    @property
    def speedup(self) -> float:
        """Batch over scalar throughput ratio."""
        return self.scalar_wall_s / self.batch_wall_s

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of this case."""
        return {
            "n_items": self.n_items,
            "scalar_wall_s": self.scalar_wall_s,
            "batch_wall_s": self.batch_wall_s,
            "scalar_per_s": self.scalar_per_s,
            "batch_per_s": self.batch_per_s,
            "speedup": self.speedup,
            "equivalent": self.equivalent,
            **{key: value for key, value in sorted(self.extras.items())},
        }


def _best_wall_s(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` (minimum filters scheduler
    noise, the standard timeit practice)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_extraction(
    n_segments: int = 256,
    segment_length: int = 128,
    repeats: int = 3,
    seed: int = 2025,
) -> PerfCase:
    """Time full feature extraction: per-row reference vs batch path."""
    if n_segments < 1:
        raise ConfigurationError("n_segments must be positive")
    layout = FeatureLayout(segment_length=segment_length)
    X = np.random.default_rng(seed).normal(size=(n_segments, segment_length))
    equivalent = bool(
        np.allclose(batch_extract_matrix(X, layout), layout.extract_matrix(X),
                    atol=1e-9)
    )
    scalar = _best_wall_s(lambda: layout.extract_matrix(X), repeats)
    batch = _best_wall_s(lambda: batch_extract_matrix(X, layout), repeats)
    return PerfCase("extraction", n_segments, scalar, batch, equivalent)


def bench_dwt(
    n_segments: int = 512,
    segment_length: int = 128,
    levels: int = 5,
    wavelet: str = "db2",
    repeats: int = 3,
    seed: int = 2025,
) -> PerfCase:
    """Time the multi-level DWT pyramid: per-row reference vs batched.

    Defaults to db2 so the general filter-bank path (not the Haar
    pair-arithmetic shortcut) is what the gate watches.
    """
    X = np.random.default_rng(seed).normal(size=(n_segments, segment_length))
    ref = [dwt_multilevel(row, levels, wavelet) for row in X]
    fast = dwt_multilevel_batch(X, levels, wavelet)
    equivalent = all(
        np.allclose(fast[band][i], ref[i][band], atol=1e-9)
        for i in range(n_segments)
        for band in range(len(fast))
    )
    scalar = _best_wall_s(
        lambda: [dwt_multilevel(row, levels, wavelet) for row in X], repeats
    )
    batch = _best_wall_s(lambda: dwt_multilevel_batch(X, levels, wavelet), repeats)
    return PerfCase("dwt", n_segments, scalar, batch, equivalent)


def _bench_engine(n_segments: int):
    """A small trained engine plus its dataset, shared by the inference and
    end-to-end benches."""
    dataset = load_case("C1", n_segments=max(60, n_segments))
    engine = train_analytic_engine(dataset, _BENCH_TRAINING)
    return engine, dataset


def bench_inference(
    n_events: int = 256, repeats: int = 3, seed: int = 2025
) -> PerfCase:
    """Time ensemble inference on normalised features: per-event vs batch."""
    from repro.ml.inference import EnsembleBatchScorer

    engine, dataset = _bench_engine(n_events)
    rows = np.random.default_rng(seed).integers(
        0, len(dataset.segments), size=n_events
    )
    X = engine.normalizer.transform(
        batch_extract_matrix(dataset.segments[rows], engine.layout)
    )
    ensemble = engine.ensemble
    scorer = EnsembleBatchScorer(ensemble)
    per_event = np.array([int(ensemble.predict(x[None, :])[0]) for x in X])
    equivalent = bool(np.array_equal(per_event, scorer.predict(X)))
    scalar = _best_wall_s(
        lambda: [int(ensemble.predict(x[None, :])[0]) for x in X], repeats
    )
    batch = _best_wall_s(lambda: scorer.predict(X), repeats)
    return PerfCase("inference", n_events, scalar, batch, equivalent)


def bench_end_to_end(
    n_events: int = 256, repeats: int = 3, seed: int = 2025
) -> PerfCase:
    """Time raw segments to decisions: predict_segment loop vs predict_batch."""
    engine, dataset = _bench_engine(n_events)
    rows = np.random.default_rng(seed).integers(
        0, len(dataset.segments), size=n_events
    )
    segments = dataset.segments[rows]
    per_event = np.array([engine.predict_segment(row) for row in segments])
    equivalent = bool(np.array_equal(per_event, engine.predict_batch(segments)))
    scalar = _best_wall_s(
        lambda: [engine.predict_segment(row) for row in segments], repeats
    )
    batch = _best_wall_s(lambda: engine.predict_batch(segments), repeats)
    return PerfCase("end_to_end", n_events, scalar, batch, equivalent)


def bench_generator(
    n_limits: int = 6, repeats: int = 3
) -> PerfCase:
    """Time a delay-limit ladder of constrained ``generate()`` calls.

    The workload mirrors the design-space sweeps (pareto, codesign,
    sensitivity) that call the Automatic XPro Generator once per point
    with a fixed hardware context: ``n_limits`` delay limits spanning the
    feasible band between the best single-end delay and the unconstrained
    min-cut delay, each limit tight enough to force the full Lagrangian
    bisection.

    - *scalar path*: a fresh ``warm_start=False, cache_size=0`` generator
      per limit — every lambda probe rebuilds the s-t graph, solves Dinic
      from a cold start and re-prices every cut through the energy/delay
      model (the pre-fast-path behaviour);
    - *batch path*: one warm generator for the whole ladder — a single
      s-t graph template re-priced per lambda, residual-flow warm starts,
      and the partition-evaluation memo shared across limits.

    Equivalence asserts both paths return identical partitions and
    bit-identical metrics at every limit.
    """
    from repro.core.generator import AutomaticXProGenerator
    from repro.graph.cuts import aggregator_cut, sensor_cut
    from repro.hw.aggregator import AggregatorCPU
    from repro.hw.energy import EnergyLibrary
    from repro.hw.wireless import WirelessLink
    from repro.sim.evaluate import metrics_identical

    if n_limits < 1:
        raise ConfigurationError("n_limits must be positive")
    engine, _ = _bench_engine(120)
    lib = EnergyLibrary("90nm")
    topology = engine.build_topology(lib)
    link = WirelessLink("model3")  # slow link => real cross-end cuts
    cpu = AggregatorCPU()

    probe = AutomaticXProGenerator(topology, lib, link, cpu)
    unconstrained = probe.evaluate(probe.min_cut_partition().in_sensor)
    single_end = min(
        probe.evaluate(sensor_cut(topology)).delay_total_s,
        probe.evaluate(aggregator_cut(topology)).delay_total_s,
    )
    lo = min(single_end, unconstrained.delay_total_s)
    hi = max(single_end, unconstrained.delay_total_s)
    if hi <= lo:
        raise ConfigurationError(
            "generator bench is degenerate: the unconstrained min cut "
            "already matches the best single-end delay, so no limit in "
            "the ladder would force the Lagrangian search"
        )
    limits = [
        lo + (hi - lo) * (i + 1) / (n_limits + 1) for i in range(n_limits)
    ]

    def run_cold():
        return [
            AutomaticXProGenerator(
                topology, lib, link, cpu, warm_start=False, cache_size=0
            ).generate(delay_limit_s=limit)
            for limit in limits
        ]

    def run_warm():
        gen = AutomaticXProGenerator(topology, lib, link, cpu)
        return [gen.generate(delay_limit_s=limit) for limit in limits]

    cold_results = run_cold()
    warm_results = run_warm()
    equivalent = all(
        c.partition == w.partition and metrics_identical(c.metrics, w.metrics)
        for c, w in zip(cold_results, warm_results)
    )
    scalar = _best_wall_s(run_cold, repeats)
    batch = _best_wall_s(run_warm, repeats)
    return PerfCase("generator", n_limits, scalar, batch, equivalent)


def _bench_metrics():
    """Fixed cross-end operating point shared by the wire/fleet benches."""
    from repro.sim.evaluate import PartitionMetrics

    return PartitionMetrics(
        in_sensor=frozenset({"cell"}),
        sensor_compute_j=2e-6,
        sensor_tx_j=1e-6,
        sensor_rx_j=0.0,
        delay_front_s=1e-3,
        delay_link_s=2e-3,
        delay_back_s=1e-3,
        aggregator_cpu_j=1e-6,
        aggregator_radio_j=1e-6,
        crossing_bits_up=512,
        crossing_bits_down=0,
    )


def bench_wire(
    n_payloads: int = 512,
    values_per_payload: int = 24,
    repeats: int = 3,
    seed: int = 2025,
) -> PerfCase:
    """Time the wire data plane: scalar vs batch framing/CRC/codec.

    One item is a full payload round trip — Q16.16 serialisation,
    fragmentation into CRC-protected frames, receiver-side decode and
    value recovery:

    - *scalar path*: :func:`~repro.hw.framing.encode_values_scalar`,
      per-frame :func:`~repro.hw.framing.fragment_payload` /
      :func:`~repro.hw.framing.decode_frame` (per-byte CRC loops), then
      :func:`~repro.hw.framing.decode_values_scalar` — the pre-batch
      reference implementations;
    - *batch path*: the vectorised codec over all payloads at once
      (:func:`~repro.hw.framing.encode_values`,
      :func:`~repro.hw.framing.encode_frames`,
      :func:`~repro.hw.framing.decode_frames`,
      :func:`~repro.hw.framing.decode_values`).

    ``equivalent`` asserts byte-identical frames, exactly equal decoded
    values, *and* that a seeded byte-level :class:`~repro.sim.faults.
    FaultCampaign` replays bit-identically through its fast path.
    """
    from repro.hw.arq import ARQConfig
    from repro.hw.framing import (
        SEQ_MODULUS,
        FramingConfig,
        decode_frame,
        decode_frames,
        decode_values,
        decode_values_scalar,
        encode_frames,
        encode_values,
        encode_values_scalar,
        fragment_payload,
    )
    from repro.sim.channel import GilbertElliottParams
    from repro.sim.faults import (
        BurstLoss,
        FaultCampaign,
        IntegrityConfig,
        PayloadCorruption,
        reports_identical,
    )
    from repro.sim.simulator import CrossEndSimulator

    if n_payloads < 1 or values_per_payload < 1:
        raise ConfigurationError(
            "n_payloads and values_per_payload must be positive"
        )
    config = FramingConfig(max_payload_bytes=64, crc=True)
    values = np.random.default_rng(seed).uniform(
        -1000.0, 1000.0, (n_payloads, values_per_payload)
    )
    payload_len = values_per_payload * 4  # Q16.16 words
    n_chunks = -(-payload_len // config.max_payload_bytes)

    def run_scalar():
        decoded = []
        seq = 0
        for row in values:
            payload = encode_values_scalar(row)
            frames = fragment_payload(payload, seq, config)
            seq = (seq + len(frames)) % SEQ_MODULUS
            parts = [decode_frame(frame, config).payload for frame in frames]
            decoded.append(decode_values_scalar(b"".join(parts)))
        return decoded

    def run_batch():
        blob = encode_values(values)
        chunks = [
            blob[start : start + min(config.max_payload_bytes,
                                     payload_len - offset)]
            for base in range(0, len(blob), payload_len)
            for offset in range(0, payload_len, config.max_payload_bytes)
            for start in (base + offset,)
        ]
        index = np.arange(n_payloads * n_chunks)
        matrix, lengths = encode_frames(
            chunks,
            index % SEQ_MODULUS,
            config,
            last=(index % n_chunks) == n_chunks - 1,
        )
        batch = decode_frames(matrix, config, lengths)
        decoded = decode_values(b"".join(batch.payloads))  # type: ignore[arg-type]
        return matrix, lengths, decoded.reshape(n_payloads, values_per_payload)

    scalar_decoded = run_scalar()
    matrix, lengths, batch_decoded = run_batch()
    seq = 0
    frames_ok = True
    for i, row in enumerate(values):
        frames = fragment_payload(encode_values_scalar(row), seq, config)
        seq = (seq + len(frames)) % SEQ_MODULUS
        for j, frame in enumerate(frames):
            r = i * n_chunks + j
            if matrix[r, : int(lengths[r])].tobytes() != frame:
                frames_ok = False
    values_ok = all(
        np.array_equal(scalar_decoded[i], batch_decoded[i])
        for i in range(n_payloads)
    )

    campaign = FaultCampaign(
        [
            BurstLoss(GilbertElliottParams(0.01, 0.20, 0.005, 0.5)),
            PayloadCorruption(0.05, mode="bitflip"),
        ],
        seed=seed,
    )
    simulator = CrossEndSimulator(_bench_metrics(), period_s=0.25, seed=seed)
    integrity = IntegrityConfig(framing=config, values_per_payload=8)
    arq = ARQConfig(max_retries=3, timeout_s=2e-3)
    campaign_ok = reports_identical(
        campaign.run(simulator, 200, arq=arq, integrity=integrity, fast=False),
        campaign.run(simulator, 200, arq=arq, integrity=integrity, fast=True),
    )

    equivalent = frames_ok and values_ok and campaign_ok
    scalar = _best_wall_s(run_scalar, repeats)
    batch = _best_wall_s(run_batch, repeats)
    return PerfCase("wire", n_payloads, scalar, batch, equivalent)


def bench_fleet(
    n_networks: int = 1250,
    devices_per_network: int = 8,
    n_rounds: int = 4,
    repeats: int = 1,
    seed: int = 2025,
) -> PerfCase:
    """Time population-scale fleet rounds: scalar twin vs SoA engine.

    One item is one simulated device (``n_items = n_networks *
    devices_per_network`` — 10^4 at the full-mode defaults).  Both paths
    simulate the identical fleet — mixed TDMA/MIMO networks, bursty
    Gilbert-Elliott links, bounded stop-and-wait retries — under the
    per-network RNG draw-order contract of :mod:`repro.sim.fleetsoa`:

    - *scalar path*: :func:`~repro.sim.fleetsoa.simulate_fleet_scalar` —
      one Python event loop per device, real
      :class:`~repro.sim.channel.GilbertElliottChannel` objects stepped
      one attempt slot at a time (the pre-SoA fleet shape);
    - *batch path*: :func:`~repro.sim.fleetsoa.simulate_fleet_soa` — one
      ndarray per state field across the whole fleet, block channel
      draws through :func:`~repro.sim.channel.ge_outcome_block`.

    ``equivalent`` asserts the full :class:`~repro.sim.fleetsoa.
    FleetResult` columns — counters, energies, latencies, availability
    (NaN sentinels included) and final channel states — are bit-identical
    via :func:`~repro.sim.fleetsoa.fleet_results_identical`, unsupervised
    on the timed fleet and supervised (health states and quarantine
    counts included) on a harsh-channel fleet of at most 32 networks
    where devices cycle through quarantine.  Both timings are
    unsupervised and run on one core, so the ratio is machine-portable
    and gated (``fleet.speedup`` in :data:`TRACKED_METRICS`).
    """
    from repro.sim.channel import GilbertElliottParams
    from repro.sim.fleetsoa import (
        FleetConfig,
        FleetSpec,
        fleet_results_identical,
        simulate_fleet_scalar,
        simulate_fleet_soa,
    )
    from repro.sim.supervise import HealthPolicy

    if n_networks < 1 or devices_per_network < 1 or n_rounds < 1:
        raise ConfigurationError(
            "n_networks, devices_per_network and n_rounds must be positive"
        )
    spec = FleetSpec.homogeneous(
        n_networks,
        devices_per_network,
        _bench_metrics(),
        period_s=0.25,
        protocol="mixed",
        config=FleetConfig(events_per_round=4, max_retries=2, seed=seed),
    )
    harsh = FleetSpec.homogeneous(
        min(n_networks, 32),
        devices_per_network,
        _bench_metrics(),
        period_s=0.25,
        protocol="mixed",
        config=FleetConfig(
            events_per_round=4,
            max_retries=1,
            channel=GilbertElliottParams(0.30, 0.08, 0.05, 0.95),
            seed=seed,
        ),
    )
    policy = HealthPolicy(degraded_availability=0.95, quarantine_availability=0.60)
    equivalent = fleet_results_identical(
        simulate_fleet_scalar(spec, n_rounds),
        simulate_fleet_soa(spec, n_rounds),
    ) and fleet_results_identical(
        simulate_fleet_scalar(harsh, 12, policy=policy),
        simulate_fleet_soa(harsh, 12, policy=policy),
    )
    scalar = _best_wall_s(lambda: simulate_fleet_scalar(spec, n_rounds), repeats)
    batch = _best_wall_s(lambda: simulate_fleet_soa(spec, n_rounds), repeats)
    return PerfCase("fleet", spec.n_devices, scalar, batch, equivalent)


def bench_streaming(
    n_streams: int = 1024,
    n_ticks: int = 8,
    tick_samples: int = 32,
    repeats: int = 1,
    seed: int = 2025,
) -> PerfCase:
    """Time live multi-stream window scoring: scalar twin vs SoA pool.

    One item is one emitted (scored) sliding window.  Both paths ingest
    the identical ``(n_streams, n_ticks * tick_samples)`` sample matrix
    on the identical tick cadence, over a heterogeneous window/hop grid
    (windows cycling 64/96/128 samples, hops 16/24/32 — overlapping
    windows at three rates, the AdaSense-style per-stream knobs):

    - *scalar path*: :func:`~repro.stream.twin.run_twin` — one Python
      ring buffer per stream, per-sample appends, one
      :class:`~repro.dsp.streaming.StreamingMoments` /
      :class:`~repro.dsp.streaming.CrossingCounter` pass per window (the
      pre-SoA streaming shape);
    - *batch path*: :func:`~repro.stream.engine.run_stream_pool` — one
      ring-buffer ndarray block across all streams, one batched scoring
      call per tick for all due windows at once.

    ``equivalent`` asserts the full :class:`~repro.stream.engine.
    StreamRunResult` — per-window scores, decisions, window sequencing
    and every backpressure/rejection counter — is **bit-identical**
    (NaN-aware) via :func:`~repro.stream.engine.
    stream_results_identical`.  The case's extras carry p50/p99
    per-window latency in milliseconds from an instrumented SoA run:
    every window emitted by a tick is charged that tick's wall time
    (ingest + gather + batched scoring), the serving-latency view of the
    same work.  Both timings run on one core, so the ratio is
    machine-portable and gated (``streaming.speedup`` in
    :data:`TRACKED_METRICS`).
    """
    from repro.stream import (
        MomentsBackend,
        StreamPool,
        StreamSpec,
        run_stream_pool,
        run_twin,
        stream_results_identical,
    )

    if n_streams < 1 or n_ticks < 1 or tick_samples < 1:
        raise ConfigurationError(
            "n_streams, n_ticks and tick_samples must be positive"
        )
    idx = np.arange(n_streams)
    spec = StreamSpec(
        windows=np.asarray([64, 96, 128], dtype=np.int64)[idx % 3],
        hops=np.asarray([16, 24, 32], dtype=np.int64)[idx % 3],
        levels=np.zeros(n_streams),
        tenants=idx % max(1, n_streams // 64),
        capacity=256,
    )
    backend = MomentsBackend()
    rng = np.random.default_rng(seed)
    samples = rng.normal(0.0, 1.0, (n_streams, n_ticks * tick_samples))

    twin_result = run_twin(spec, backend, samples, tick_samples)
    soa_result = run_stream_pool(spec, backend, samples, tick_samples)
    equivalent = stream_results_identical(twin_result, soa_result)

    # Instrumented SoA pass: per-tick wall time, charged to every window
    # that tick emitted — the per-window serving latency.
    pool = StreamPool(spec, backend)
    latencies: List[float] = []
    for t0 in range(0, samples.shape[1], tick_samples):
        t_start = time.perf_counter()
        pool.extend_block(samples[:, t0 : t0 + tick_samples])
        emitted = len(pool.tick())
        latencies.extend([time.perf_counter() - t_start] * emitted)
    lat_ms = np.asarray(latencies) * 1e3
    extras = {
        "n_streams": float(n_streams),
        "p50_window_latency_ms": float(np.percentile(lat_ms, 50)),
        "p99_window_latency_ms": float(np.percentile(lat_ms, 99)),
    }

    scalar = _best_wall_s(
        lambda: run_twin(spec, backend, samples, tick_samples), repeats
    )
    batch = _best_wall_s(
        lambda: run_stream_pool(spec, backend, samples, tick_samples), repeats
    )
    return PerfCase(
        "streaming", soa_result.n_windows, scalar, batch, equivalent, extras
    )


def _ensembles_identical(ref, fast, X: np.ndarray) -> bool:
    """Decision identity between two trained subspace ensembles.

    Checks the full chain the training twin guarantees: same retained
    subsets in the same order, bitwise-equal dual coefficients, biases,
    support rows and validation accuracies per member, the same
    ``used_feature_indices`` union, and identical predictions on ``X``.
    """
    if len(ref.members) != len(fast.members):
        return False
    for ma, mb in zip(ref.members, fast.members):
        if ma.feature_indices != mb.feature_indices:
            return False
        ca, cb = ma.classifier, mb.classifier
        if not (
            np.array_equal(ca.dual_coef, cb.dual_coef)
            and ca.bias == cb.bias
            and np.array_equal(ca.support_indices, cb.support_indices)
            and ma.validation_accuracy == mb.validation_accuracy
        ):
            return False
    if ref.used_feature_indices() != fast.used_feature_indices():
        return False
    return bool(np.array_equal(ref.predict(X), fast.predict(X)))


def _training_case_data(symbol: str, n_segments: int):
    """Normalised feature matrix + labels for one Table-1 case."""
    from repro.dsp.normalize import MinMaxNormalizer

    dataset = load_case(symbol, n_segments=n_segments)
    layout = FeatureLayout(segment_length=dataset.segment_length)
    features = batch_extract_matrix(dataset.segments, layout)
    return (
        MinMaxNormalizer().fit(features).transform(features),
        np.asarray(dataset.labels),
    )


def bench_training(
    n_segments: int = 200,
    n_draws: int = 100,
    cv_folds: int = 10,
    repeats: int = 1,
    check_all_cases: bool = True,
    seed: int = 42,
) -> PerfCase:
    """Time the §4.4 subspace training protocol: reference vs fast path.

    One item is one subspace draw (each costing ``cv_folds`` fold fits
    plus the final refit).  Both paths run the identical protocol on the
    identical C1 feature matrix with the identical master seed:

    - *scalar path*: ``fit(fast=False)`` — a fresh Gram matrix per fold
      per draw, each SVM trained by the pinned
      :meth:`~repro.ml.svm.SVMClassifier.fit_reference` per-index loop;
    - *batch path*: ``fit()`` — one full-row Gram per draw
      (:meth:`~repro.ml.kernels.Kernel.subspace_gram`, RBF squared-column
      precompute shared across draws) sliced with ``np.ix_`` across all
      folds, the refit and the validation scoring, each SVM trained by
      the cached-error screened SMO.

    ``equivalent`` asserts decision-identical ensembles (see
    :func:`_ensembles_identical`) on the timed pair and — when
    ``check_all_cases`` is set — on every Table-1 case at a reduced
    scale, so a timing run is also a six-case twin check.  Extras carry
    the protocol shape (``n_rows``, ``n_draws``, ``cv_folds``,
    ``cases_checked``).

    Args:
        n_segments: Segments of the C1 dataset to train on.
        n_draws: Random subspace draws (paper scale: 100).
        cv_folds: CV folds per draw (paper: 10).
        repeats: Best-of repeats per timed path (the reference path costs
            minutes at paper scale, so the default times each path once).
        check_all_cases: Also assert ref-vs-fast identity on all six
            Table-1 cases at reduced scale (full-report mode).
        seed: Master ensemble seed.
    """
    from repro.ml.subspace import RandomSubspaceClassifier

    if n_segments < 40:
        raise ConfigurationError("n_segments must be >= 40")
    if n_draws < 1:
        raise ConfigurationError("n_draws must be >= 1")
    X, y = _training_case_data("C1", n_segments)

    def make() -> RandomSubspaceClassifier:
        return RandomSubspaceClassifier(
            n_features=X.shape[1],
            subspace_dim=12,
            n_draws=n_draws,
            keep_fraction=0.10,
            C=1.0,
            seed=seed,
            cv_folds=cv_folds,
        )

    # The timed fits double as the equivalence pair: the reference path
    # costs minutes at paper scale, so it is not fit a second time.
    fitted: Dict[str, Any] = {}
    scalar = _best_wall_s(
        lambda: fitted.__setitem__("ref", make().fit(X, y, fast=False)), repeats
    )
    batch = _best_wall_s(
        lambda: fitted.__setitem__("fast", make().fit(X, y)), repeats
    )
    equivalent = _ensembles_identical(fitted["ref"], fitted["fast"], X)

    cases_checked = 1
    if check_all_cases:
        from repro.signals.datasets import CASE_ORDER

        for symbol in CASE_ORDER:
            Xc, yc = _training_case_data(symbol, 96)

            def make_small() -> RandomSubspaceClassifier:
                return RandomSubspaceClassifier(
                    n_features=Xc.shape[1],
                    subspace_dim=12,
                    n_draws=4,
                    keep_fraction=0.5,
                    C=1.0,
                    seed=seed,
                    cv_folds=3,
                )

            equivalent = equivalent and _ensembles_identical(
                make_small().fit(Xc, yc, fast=False),
                make_small().fit(Xc, yc),
                Xc,
            )
            cases_checked += 1

    extras = {
        "n_rows": float(len(X)),
        "n_draws": float(n_draws),
        "cv_folds": float(cv_folds),
        "cases_checked": float(cases_checked),
    }
    return PerfCase("training", n_draws, scalar, batch, equivalent, extras)


def collect_perf_report(
    fast: bool = False,
    repeats: int = 3,
    stages: Sequence[str] | None = None,
) -> Dict[str, Any]:
    """Run every benchmark and assemble the machine-readable report.

    Work sizes are deliberately identical in fast and full mode — only the
    repeat count (and the fleet size) changes — so a fast-mode fresh report
    is directly comparable to the committed full-mode baseline.

    Args:
        fast: CI smoke scale — single repeat, a smaller fleet and a
            smaller stream population.
        repeats: Best-of repeats per timed path (forced to 1 in fast mode).
        stages: Optional subset of :data:`ALL_STAGES` to run (``None``
            runs them all).  Subset reports time faster but only carry
            the selected tracked metrics, so they serve smoke checks —
            the committed baseline is always a full report.

    Returns:
        JSON-ready report dictionary (see ``docs/PERFORMANCE.md``).
    """
    if stages is not None:
        unknown = set(stages) - set(ALL_STAGES)
        if unknown:
            raise ConfigurationError(
                f"unknown perf stages {sorted(unknown)}; available: {ALL_STAGES}"
            )

    def wanted(name: str) -> bool:
        return stages is None or name in stages

    repeats = 1 if fast else repeats
    cases: List[PerfCase] = []
    if wanted("extraction"):
        cases.append(bench_extraction(n_segments=256, repeats=repeats))
    if wanted("dwt"):
        cases.append(bench_dwt(n_segments=512, repeats=repeats))
    if wanted("inference"):
        cases.append(bench_inference(n_events=256, repeats=repeats))
    if wanted("end_to_end"):
        cases.append(bench_end_to_end(n_events=256, repeats=repeats))
    if wanted("generator"):
        cases.append(bench_generator(n_limits=6, repeats=repeats))
    if wanted("wire"):
        cases.append(bench_wire(n_payloads=512, repeats=repeats))
    if wanted("fleet"):
        cases.append(
            bench_fleet(
                n_networks=256 if fast else 1250,
                devices_per_network=8,
                n_rounds=4,
                repeats=1,
            )
        )
    if wanted("streaming"):
        cases.append(
            bench_streaming(
                n_streams=256 if fast else 1024,
                n_ticks=8,
                tick_samples=32,
                # Best-of-3 even in fast mode: the twin-vs-SoA ratio at
                # one repeat is noisy enough (~4-13x observed) to graze
                # the >= 8x acceptance floor and the CI gate cutoff on a
                # busy machine, and the whole stage times in ~1 s.
                repeats=3,
            )
        )
    if wanted("training"):
        cases.append(
            bench_training(
                n_segments=200,
                # Paper scale (100 draws x 10-fold CV) costs the reference
                # path minutes; fast mode trims the draw count, keeping
                # the per-draw work — and therefore the ratio — intact.
                n_draws=6 if fast else 100,
                cv_folds=10,
                repeats=1,
                check_all_cases=not fast,
            )
        )

    metrics: Dict[str, float] = {}
    for case in cases:
        metrics[f"{case.name}.speedup"] = case.speedup
        metrics[f"{case.name}.scalar_per_s"] = case.scalar_per_s
        metrics[f"{case.name}.batch_per_s"] = case.batch_per_s
        for key, value in case.extras.items():
            metrics[f"{case.name}.{key}"] = value
    tracked = [name for name in TRACKED_METRICS if name in metrics]
    return {
        "schema": SCHEMA,
        "fast_mode": bool(fast),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "cases": {case.name: case.as_dict() for case in cases},
        "metrics": metrics,
        "tracked": tracked,
        "gate": {
            name: round(metrics[name] * GATE_MARGIN, 2) for name in tracked
        },
        "gate_margin": GATE_MARGIN,
    }


def write_perf_report(report: Dict[str, Any], path: str | Path) -> Path:
    """Serialise a perf report to pretty-printed JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target


def load_perf_report(path: str | Path) -> Dict[str, Any]:
    """Load a perf report, validating the schema marker."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"{path}: unknown perf report schema {data.get('schema')!r}"
        )
    return data


def compare_reports(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """The regression gate: fresh tracked metrics vs the committed baseline.

    A tracked metric regresses when it falls below the baseline's gate
    value (its measurement times :data:`GATE_MARGIN`) minus the threshold:
    ``gate * (1 - threshold)``.  Improvements never fail the gate.

    Args:
        fresh: Report measured by the current build.
        baseline: The committed baseline report.
        threshold: Allowed fractional regression (default 25%).

    Returns:
        Human-readable failure descriptions; empty when the gate is green.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must be in (0, 1)")
    failures: List[str] = []
    fresh_metrics = fresh.get("metrics", {})
    gate_values = baseline.get("gate", {})
    for name in baseline.get("tracked", []):
        base_value = gate_values.get(name, baseline["metrics"][name])
        fresh_value = fresh_metrics.get(name)
        if fresh_value is None:
            failures.append(f"{name}: missing from the fresh report")
            continue
        floor = base_value * (1.0 - threshold)
        if fresh_value < floor:
            failures.append(
                f"{name}: {fresh_value:.2f} < {floor:.2f} "
                f"(baseline {base_value:.2f}, -{threshold:.0%} allowed)"
            )
    for case_name, case in fresh.get("cases", {}).items():
        if not case.get("equivalent", True):
            failures.append(
                f"{case_name}: scalar and batch paths disagreed on this run"
            )
    return failures


def check_regression(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> None:
    """Raise :class:`PerfRegressionError` when :func:`compare_reports` fails."""
    failures = compare_reports(fresh, baseline, threshold)
    if failures:
        raise PerfRegressionError(
            "perf regression gate failed:\n  " + "\n  ".join(failures)
        )


def perf_rows(report: Dict[str, Any]) -> List[Dict[str, object]]:
    """Result rows of one report for :func:`repro.eval.tables.format_table`."""
    rows: List[Dict[str, object]] = []
    for name, case in report["cases"].items():
        rows.append(
            {
                "stage": name,
                "items": case["n_items"],
                "scalar/s": case["scalar_per_s"],
                "batch/s": case["batch_per_s"],
                "speedup": case["speedup"],
                "equivalent": "yes" if case["equivalent"] else "NO",
            }
        )
    return rows
