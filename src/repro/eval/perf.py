"""Scalar-vs-batch performance harness and its per-stage speed-up floors.

Each row of :data:`STAGES` times one layer of the pipeline two ways — the
scalar reference and the fast path — on the same inputs:

- **extraction**: :meth:`FeatureLayout.extract_matrix` (per-row Python
  loop) vs :func:`repro.dsp.batch.batch_extract_matrix`, 256 segments,
  bit-identical;
- **dwt**: :func:`~repro.dsp.wavelet.dwt_multilevel` row by row (as the
  engine's DWT cells run it) vs the same function over the whole
  ``(rows, n)`` batch (as training and the gateway run it), 512 rows,
  bit-identical;
- **inference**: per-event ensemble prediction (one tiny Gram matrix per
  member per event) vs one
  :meth:`~repro.ml.subspace.RandomSubspaceClassifier.predict` call on the
  whole batch (one Gram matrix per member per batch), 256 events;
- **end_to_end**: :meth:`TrainedAnalyticEngine.predict_segment` in a loop
  vs :meth:`TrainedAnalyticEngine.predict_batch`, raw segments to
  decisions; shares the inference row's trained engine;
- **generator**: a ladder of 6 delay limits spanning the band between the
  best single-end delay and the unconstrained min-cut delay, each forcing
  the full Lagrangian bisection — a cold ``warm_start=False,
  cache_size=0`` generator per limit (a fresh s-t graph per solve, Dinic
  from zero flow, no memo) vs one warm generator for the whole ladder;
  identical partitions and bit-identical metrics at every limit;
- **wire**: 512 payload round trips (Q16.16 packing, CRC-protected
  fragmentation, decode, value recovery) through the scalar
  :mod:`repro.hw.framing` reference vs the batch codec; byte-identical
  frames, equal values, and a seeded byte-level
  :class:`~repro.sim.faults.FaultCampaign` whose block fault source
  replays the live-source run of the same faults (as trivial subclasses)
  bit-identically;
- **fleet**: 4 rounds of a mixed TDMA/MIMO fleet (1250 x 8 devices, 256 x 8
  in fast mode) through the per-object scalar twin
  :func:`~repro.sim.fleetsoa.simulate_fleet_scalar` vs the
  struct-of-arrays :func:`~repro.sim.fleetsoa.simulate_fleet_soa`;
  bit-identical :class:`~repro.sim.fleetsoa.FleetResult` columns, also
  supervised on a harsh-channel fleet where devices cycle through
  quarantine (timings are unsupervised);
- **streaming**: emitted windows over 1024 live streams (256 in fast mode)
  on a 64/96/128-sample window and 16/24/32 hop grid through the scalar
  twin :func:`~repro.stream.twin.run_twin` vs the struct-of-arrays
  :func:`~repro.stream.engine.run_stream_pool`; bit-identical per-window
  scores, decisions and backpressure counters; extras carry p50/p99
  per-window tick latency from an instrumented pool run;
- **training**: the §4.4 subspace protocol on 200 C1 segments (100 draws x
  10-fold CV, 6 draws in fast mode) through the pinned reference
  (``fit(fast=False)``) vs the fold-sliced fast path; decision-identical
  ensembles on the first timed pair and, in full mode, on all six
  Table-1 cases at reduced scale.

:func:`_measure` runs every row the same way: it times the two paths
interleaved (reference, fast, reference, fast, ...), checks the outputs
of the first pair for equivalence and keeps the best time of each path
over all pairs, so a burst of host load hits both sides of the ratio
alike and every timing run is also an equivalence check.  Adding a
stage means adding one row, and a row cannot be written without its
speed-up floor; :data:`ALL_STAGES` follows from the table.

The report is serialised to ``benchmarks/results/BENCH_perf.json``
(schema documented in ``docs/PERFORMANCE.md``).  :func:`check_report` is
the one gate: it fails when a stage's two paths disagreed or its speed-up
ratio — a property of the code, portable across machines, unlike absolute
throughput — fell below the row's floor.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.layout import FeatureLayout
from repro.core.pipeline import TrainingConfig, train_analytic_engine
from repro.dsp.batch import batch_extract_matrix
from repro.dsp.wavelet import dwt_multilevel
from repro.errors import ConfigurationError, PerfRegressionError
from repro.eval.jsonio import read_json_document, write_json_document
from repro.signals.datasets import load_case

#: Report schema identifier (bump on breaking layout changes).
SCHEMA = "xpro-bench-perf/2"

#: Training scale used by the inference/end-to-end/generator rows: small
#: enough to train in seconds, big enough to retain several members and
#: realistic support-vector counts.
_BENCH_TRAINING = TrainingConfig(
    subspace_dim=6, n_draws=8, keep_fraction=0.25, seed=7
)

#: Seed of every row's random inputs (the training row uses its own).
_SEED = 2025

@dataclass(frozen=True)
class PerfCase:
    """One scalar-vs-batch timing comparison.

    Attributes:
        name: Stage name (the :class:`Stage` row's).
        n_items: Work items (segments/events) processed per timed pass.
        scalar_wall_s: Best wall time of the scalar reference path.
        batch_wall_s: Best wall time of the vectorised batch path.
        equivalent: Whether the two paths agreed on this run's data.
        floor: The row's speed-up floor (:attr:`Stage.floor`).
        extras: Informational stage-specific metrics, written into the
            case (e.g. the streaming stage's per-window tick-latency
            percentiles).
    """

    name: str
    n_items: int
    scalar_wall_s: float
    batch_wall_s: float
    equivalent: bool
    floor: float
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
            "floor": self.floor,
            **{key: value for key, value in sorted(self.extras.items())},
        }


class Work(NamedTuple):
    """What a stage builder hands :func:`_measure`.

    Attributes:
        n_items: Work items processed per call of either path.
        reference: The scalar reference path.
        fast: The fast path over the same inputs.
        equivalent: ``equivalent(reference_output, fast_output)``.
        extras: Stage-specific metrics for :attr:`PerfCase.extras`.
    """

    n_items: int
    reference: Callable[[], Any]
    fast: Callable[[], Any]
    equivalent: Callable[[Any, Any], bool]
    extras: Dict[str, float] = {}


@dataclass(frozen=True)
class Stage:
    """One row of :data:`STAGES`.

    Attributes:
        name: Stage name.
        build: ``build(fast)`` prepares the inputs and returns the
            :class:`Work`; ``fast`` is the CI smoke scale.
        floor: Lowest acceptable speed-up (reference over fast wall time)
            in either mode; :func:`check_report` fails below it.
        repeats: Fixed best-of count, or ``None`` for the caller's
            (which is 1 in fast mode).
    """

    name: str
    build: Callable[[bool], Work]
    floor: float
    repeats: Optional[int] = None


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """Wall time of one call of ``fn`` and its output."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _best_walls_s(
    reference: Callable[[], Any], fast: Callable[[], Any], repeats: int
) -> tuple[float, float]:
    """Best-of-``repeats`` wall time of each path, timed interleaved.

    The minimum filters scheduler noise (the standard timeit practice);
    alternating the paths makes a burst of host load slow both of them
    rather than one side of the ratio.
    """
    best_reference = best_fast = float("inf")
    for _ in range(repeats):
        best_reference = min(best_reference, _timed(reference)[0])
        best_fast = min(best_fast, _timed(fast)[0])
    return best_reference, best_fast


def _arrays_equal(ref: Any, out: Any) -> bool:
    return bool(np.array_equal(ref, out))


def _random_rows(n_rows: int) -> np.ndarray:
    return np.random.default_rng(_SEED).normal(size=(n_rows, 128))


def _extraction(fast: bool) -> Work:
    layout = FeatureLayout(segment_length=128)
    X = _random_rows(256)
    return Work(
        256,
        lambda: layout.extract_matrix(X),
        lambda: batch_extract_matrix(X, layout),
        _arrays_equal,
    )


def _dwt(fast: bool) -> Work:
    X = _random_rows(512)
    return Work(
        512,
        lambda: [dwt_multilevel(row, 5) for row in X],
        lambda: dwt_multilevel(X, 5),
        lambda ref, out: all(
            np.array_equal(out[band][i], ref[i][band])
            for i in range(len(ref))
            for band in range(len(out))
        ),
    )


@lru_cache(maxsize=None)
def _bench_engine(n_segments: int):
    """A small trained engine plus its dataset, trained once per size and
    report (:func:`collect_perf_report` clears the cache)."""
    dataset = load_case("C1", n_segments=max(60, n_segments))
    return train_analytic_engine(dataset, _BENCH_TRAINING), dataset


def _bench_events(n_events: int):
    """The shared engine and ``n_events`` of its segments, drawn with
    replacement."""
    engine, dataset = _bench_engine(n_events)
    rows = np.random.default_rng(_SEED).integers(
        0, len(dataset.segments), size=n_events
    )
    return engine, dataset.segments[rows]


def _inference(fast: bool) -> Work:
    engine, segments = _bench_events(256)
    X = engine.normalizer.transform(batch_extract_matrix(segments, engine.layout))
    ensemble = engine.ensemble
    return Work(
        256,
        lambda: [int(ensemble.predict(x[None, :])[0]) for x in X],
        lambda: ensemble.predict(X),
        _arrays_equal,
    )


def _end_to_end(fast: bool) -> Work:
    engine, segments = _bench_events(256)
    return Work(
        256,
        lambda: [engine.predict_segment(row) for row in segments],
        lambda: engine.predict_batch(segments),
        _arrays_equal,
    )


def _generator(fast: bool) -> Work:
    from repro.core.generator import AutomaticXProGenerator
    from repro.graph.cuts import aggregator_cut, sensor_cut
    from repro.hw.aggregator import AggregatorCPU
    from repro.hw.energy import EnergyLibrary
    from repro.hw.wireless import WirelessLink
    from repro.sim.evaluate import metrics_identical

    n_limits = 6
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

    return Work(
        n_limits,
        run_cold,
        run_warm,
        lambda cold, warm: all(
            c.partition == w.partition and metrics_identical(c.metrics, w.metrics)
            for c, w in zip(cold, warm)
        ),
    )


def _bench_metrics():
    """Fixed cross-end operating point shared by the wire/fleet rows."""
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


def _wire(fast: bool) -> Work:
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

    class LiveBurst(BurstLoss):
        """Outside the block source's exact types: runs on the live source."""

    class LiveCorruption(PayloadCorruption):
        """Outside the block source's exact types: runs on the live source."""

    n_payloads, values_per_payload = 512, 24
    config = FramingConfig(max_payload_bytes=64, crc=True)
    values = np.random.default_rng(_SEED).uniform(
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

    def equivalent(scalar_decoded, batch_out) -> bool:
        matrix, lengths, batch_decoded = batch_out
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
        simulator = CrossEndSimulator(_bench_metrics(), period_s=0.25, seed=_SEED)
        integrity = IntegrityConfig(framing=config, values_per_payload=8)
        arq = ARQConfig(max_retries=3, timeout_s=2e-3)

        def run(burst, corruption):
            campaign = FaultCampaign(
                [
                    burst(GilbertElliottParams(0.01, 0.20, 0.005, 0.5)),
                    corruption(0.05, mode="bitflip"),
                ],
                seed=_SEED,
            )
            return campaign.run(simulator, 200, arq=arq, integrity=integrity)

        campaign_ok = reports_identical(
            run(LiveBurst, LiveCorruption), run(BurstLoss, PayloadCorruption)
        )
        return frames_ok and values_ok and campaign_ok

    return Work(n_payloads, run_scalar, run_batch, equivalent)


def _fleet(fast: bool) -> Work:
    from repro.sim.channel import GilbertElliottParams
    from repro.sim.fleetsoa import (
        FleetConfig,
        FleetSpec,
        fleet_results_identical,
        simulate_fleet_scalar,
        simulate_fleet_soa,
    )
    from repro.sim.supervise import HealthPolicy

    n_networks, devices_per_network, n_rounds = (256 if fast else 1250), 8, 4
    spec = FleetSpec.homogeneous(
        n_networks,
        devices_per_network,
        _bench_metrics(),
        period_s=0.25,
        protocol="mixed",
        config=FleetConfig(events_per_round=4, max_retries=2, seed=_SEED),
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
            seed=_SEED,
        ),
    )
    policy = HealthPolicy(degraded_availability=0.95, quarantine_availability=0.60)
    return Work(
        spec.n_devices,
        lambda: simulate_fleet_scalar(spec, n_rounds),
        lambda: simulate_fleet_soa(spec, n_rounds),
        lambda ref, out: fleet_results_identical(ref, out)
        and fleet_results_identical(
            simulate_fleet_scalar(harsh, 12, policy=policy),
            simulate_fleet_soa(harsh, 12, policy=policy),
        ),
    )


def _streaming(fast: bool) -> Work:
    from repro.stream import (
        MomentsBackend,
        StreamPool,
        StreamSpec,
        run_stream_pool,
        run_twin,
        stream_results_identical,
    )

    n_streams, n_ticks, tick_samples = (256 if fast else 1024), 8, 32
    idx = np.arange(n_streams)
    spec = StreamSpec(
        windows=np.asarray([64, 96, 128], dtype=np.int64)[idx % 3],
        hops=np.asarray([16, 24, 32], dtype=np.int64)[idx % 3],
        levels=np.zeros(n_streams),
        tenants=idx % max(1, n_streams // 64),
        capacity=256,
    )
    backend = MomentsBackend()
    samples = np.random.default_rng(_SEED).normal(
        0.0, 1.0, (n_streams, n_ticks * tick_samples)
    )

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
    return Work(
        len(latencies),
        lambda: run_twin(spec, backend, samples, tick_samples),
        lambda: run_stream_pool(spec, backend, samples, tick_samples),
        stream_results_identical,
        {
            "n_streams": float(n_streams),
            "p50_window_latency_ms": float(np.percentile(lat_ms, 50)),
            "p99_window_latency_ms": float(np.percentile(lat_ms, 99)),
        },
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


def _training_case(symbol: str, n_segments: int, **params: Any):
    """Normalised features and labels of one Table-1 case, plus a factory
    of identically seeded subspace classifiers over them."""
    from repro.dsp.normalize import MinMaxNormalizer
    from repro.ml.subspace import RandomSubspaceClassifier

    dataset = load_case(symbol, n_segments=n_segments)
    layout = FeatureLayout(segment_length=dataset.segment_length)
    features = batch_extract_matrix(dataset.segments, layout)
    X = MinMaxNormalizer().fit(features).transform(features)

    def make() -> RandomSubspaceClassifier:
        return RandomSubspaceClassifier(
            n_features=X.shape[1], subspace_dim=12, C=1.0, seed=42, **params
        )

    return X, np.asarray(dataset.labels), make


def _small_case_identical(symbol: str) -> bool:
    X, y, make = _training_case(
        symbol, 96, n_draws=4, keep_fraction=0.5, cv_folds=3
    )
    return _ensembles_identical(make().fit(X, y, fast=False), make().fit(X, y), X)


def _training(fast: bool) -> Work:
    from repro.signals.datasets import CASE_ORDER

    # Paper scale (100 draws x 10-fold CV) costs the reference path
    # minutes; fast mode trims the draw count, keeping the per-draw work —
    # and therefore the ratio — intact.
    n_draws = 6 if fast else 100
    X, y, make = _training_case(
        "C1", 200, n_draws=n_draws, keep_fraction=0.10, cv_folds=10
    )
    cases = () if fast else CASE_ORDER
    return Work(
        n_draws,
        lambda: make().fit(X, y, fast=False),
        lambda: make().fit(X, y),
        lambda ref, out: _ensembles_identical(ref, out, X)
        and all(_small_case_identical(symbol) for symbol in cases),
        {
            "n_rows": float(len(X)),
            "n_draws": float(n_draws),
            "cv_folds": 10.0,
            "cases_checked": float(1 + len(cases)),
        },
    )


#: The stage table: every stage the harness runs, in report order.  Work
#: sizes are identical in fast and full mode except where a builder scales
#: on ``fast``; repeats are 1 in fast mode except where a row fixes them.
#: Each floor holds in both modes; losing a fast path collapses its ratio
#: to about 1x, far below any of them.
STAGES = (
    Stage("extraction", _extraction, floor=6.30),
    Stage("dwt", _dwt, floor=2.67),
    Stage("inference", _inference, floor=5.74),
    Stage("end_to_end", _end_to_end, floor=7.11),
    # The fixed best-of counts of the generator, fleet, streaming and
    # training rows hold even in fast mode: a single pass of each grazed
    # its floor on a busy host.  Training is the costliest (its reference
    # path takes several seconds per pass in fast mode).
    Stage("generator", _generator, floor=5.00, repeats=5),
    Stage("wire", _wire, floor=8.00),
    Stage("fleet", _fleet, floor=8.00, repeats=3),
    Stage("streaming", _streaming, floor=4.44, repeats=3),
    Stage("training", _training, floor=5.00, repeats=3),
)

#: Stage names accepted by :func:`collect_perf_report`'s ``stages`` filter.
ALL_STAGES = tuple(stage.name for stage in STAGES)


def _measure(stage: Stage, fast: bool, repeats: int) -> PerfCase:
    """Build one row's work and time it: the first interleaved pair is
    timed and its two outputs checked for equivalence, then each path
    keeps its best wall time over the row's remaining repeats."""
    work = stage.build(fast)
    scalar, ref_out = _timed(work.reference)
    batch, fast_out = _timed(work.fast)
    equivalent = work.equivalent(ref_out, fast_out)
    more_scalar, more_batch = _best_walls_s(
        work.reference, work.fast, (stage.repeats or repeats) - 1
    )
    return PerfCase(
        stage.name, work.n_items, min(scalar, more_scalar),
        min(batch, more_batch), bool(equivalent), stage.floor,
        dict(work.extras),
    )


def collect_perf_report(
    fast: bool = False,
    repeats: int = 3,
    stages: Sequence[str] | None = None,
) -> Dict[str, Any]:
    """Run the :data:`STAGES` rows and assemble the machine-readable report.

    Work sizes are deliberately identical in fast and full mode — only the
    repeat count, the fleet size, the stream population and the training
    draw count change — so each row's floor serves both modes.

    Args:
        fast: CI smoke scale (see :data:`STAGES`).
        repeats: Best-of repeats per timed path (forced to 1 in fast mode;
            a row may fix its own).
        stages: Optional subset of :data:`ALL_STAGES` to run (``None``
            runs them all).

    Returns:
        JSON-ready report dictionary (see ``docs/PERFORMANCE.md``).

    Raises:
        ConfigurationError: ``repeats < 1`` or an unknown stage name.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    names = [stage.name for stage in STAGES]
    if stages is not None:
        unknown = set(stages) - set(names)
        if unknown:
            raise ConfigurationError(
                f"unknown perf stages {sorted(unknown)}; available: {tuple(names)}"
            )
    repeats = 1 if fast else repeats
    try:
        cases = [
            _measure(stage, fast, repeats)
            for stage in STAGES
            if stages is None or stage.name in stages
        ]
    finally:
        _bench_engine.cache_clear()  # engines live for one report only
    return {
        "schema": SCHEMA,
        "fast_mode": bool(fast),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "cases": {case.name: case.as_dict() for case in cases},
    }


def write_perf_report(report: Dict[str, Any], path: str | Path) -> Path:
    """Serialise a perf report to pretty-printed JSON."""
    return write_json_document(report, path)


def load_perf_report(path: str | Path) -> Dict[str, Any]:
    """Load a perf report, validating the schema marker."""
    return read_json_document(path, SCHEMA, "perf report")


def check_report(report: Dict[str, Any]) -> None:
    """The perf gate: raise :class:`PerfRegressionError` naming every stage
    whose two paths disagreed and every stage whose speed-up fell below
    its floor."""
    failures: List[str] = []
    for name, case in report["cases"].items():
        if not case["equivalent"]:
            failures.append(f"{name}: scalar and batch paths disagreed")
        if case["speedup"] < case["floor"]:
            failures.append(
                f"{name}: speedup {case['speedup']:.2f} < floor {case['floor']:.2f}"
            )
    if failures:
        raise PerfRegressionError("perf gate failed:\n  " + "\n  ".join(failures))


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
                "floor": case["floor"],
                "equivalent": "yes" if case["equivalent"] else "NO",
            }
        )
    return rows
