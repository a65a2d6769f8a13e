"""Composable fault models and seeded fault-injection campaigns.

The discrete-event simulator (:mod:`repro.sim.simulator`) streams events
through an ideal system; this module stresses the same system with the
failure modes a deployed wearable actually sees:

- :class:`LinkOutage` — a hard no-delivery window (the wearer walks behind
  an RF obstacle, the aggregator reboots);
- :class:`BurstLoss` — clustered payload loss from a Gilbert-Elliott chain
  (:mod:`repro.sim.channel`), advanced once per *transmission attempt* so
  retries inside a burst keep failing;
- :class:`PayloadCorruption` — corruption of delivered bits, in two modes:
  abstract *erasure* (a coin flip indistinguishable from loss to the ARQ
  layer, the PR 1 behaviour) and byte-level *bitflip* (real bits of real
  encoded frames are mutated, so a CRC has to earn its detections);
- :class:`SensorBrownout` — battery-sag windows in which the sensor cannot
  acquire or compute at all;
- :class:`AggregatorStall` — back-end service-time inflation (GC pause,
  thermal throttling, a co-scheduled workload).

A :class:`FaultCampaign` composes any number of these under one seed and
replays them bit-for-bit: :meth:`FaultCampaign.run` re-arms every fault
model, the degradation policy and the last-known-good cache before each
run, so two runs of the same campaign produce identical
:class:`ResilienceReport` objects.

Both runners (``run(..., fast=...)``) drive one event loop; they differ
only in where fault outcomes, stage jitter and payloads come from.  The
scalar runner asks every fault model per event and per attempt, so it
runs any :class:`FaultModel`.  Campaigns built purely from the fault
models above also have a *fast* runner: loss outcomes are pre-sampled in
blocks (one :meth:`~repro.sim.channel.GilbertElliottChannel.
outcome_block` / ``Generator.random`` block per stochastic fault, served
through a cursor in exactly the scalar consumption order), jitter factors
and payload words are drawn as matrices, and byte-level payloads run
through the batch frame codec of :mod:`repro.hw.framing`.  The report is
bit-identical to the scalar runner under the same seed; only the
post-run internal RNG positions of the fault models differ (harmless,
because every ``run()`` starts with :meth:`FaultCampaign.reset`).

The runner injects the faults into a :class:`~repro.sim.simulator.
CrossEndSimulator` configuration (its partition metrics, event period and
jitter model), simulates the bounded-retry ARQ of :mod:`repro.hw.arq`
per transmission attempt, and applies the graceful-degradation policies of
:mod:`repro.core.degrade` when payloads drop.  Pass it metrics evaluated
at ``loss_rate = 0``: retries are simulated here try-by-try, so feeding
expectation-inflated figures would double-count them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.dsp.fixedpoint import Q16_16, quantize_array
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    IntegrityError,
    SimulationError,
)
from repro.hw.arq import DEFAULT_MAX_SIMULATED_TRIES, ARQConfig, UNBOUNDED_ARQ
from repro.hw.framing import (
    SEQ_MODULUS,
    FramingConfig,
    decode_frame,
    encode_frames,
    encode_values,
    fragment_payload,
)
from repro.sim.channel import GilbertElliottChannel, GilbertElliottParams
from repro.sim.checkpoint import (
    Checkpointer,
    decode_float,
    encode_float,
    restore_rng,
    rng_state,
    stable_digest,
)
from repro.sim.evaluate import PartitionMetrics, _metrics_to_dict
from repro.sim.simulator import CrossEndSimulator

#: Per-event decision outcomes a campaign can record.
DELIVERED = "delivered"
DEGRADED = "degraded"
DROPPED = "dropped"


class FaultModel:
    """Base class of one composable fault source.

    Subclasses override the hooks they need; the defaults are no-ops, so a
    fault model only has to express the dimension it perturbs.
    """

    def reset(self, rng: np.random.Generator) -> None:
        """Re-arm internal state for a fresh, reproducible campaign run."""

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Whether transmission ``attempt`` (1-based) of event ``event_index`` is lost."""
        return False

    def sensor_brownout(self, event_index: int) -> bool:
        """Whether the sensor is browned out for this event."""
        return False

    def stall_s(self, event_index: int) -> float:
        """Extra aggregator service time (s) injected into this event."""
        return 0.0

    def corrupt_frame(
        self, event_index: int, attempt: int, frame_index: int, data: bytes
    ) -> bytes:
        """Mutate the on-air bytes of one frame (identity by default)."""
        return data


def _check_window(start_event: int, n_events: int) -> None:
    if start_event < 0:
        raise ConfigurationError("start_event must be >= 0")
    if n_events < 1:
        raise ConfigurationError("n_events must be >= 1")


@dataclass
class LinkOutage(FaultModel):
    """Hard link outage: every transmission in the window is lost.

    Attributes:
        start_event: First affected event index.
        n_events: Number of consecutive affected events.
    """

    start_event: int
    n_events: int

    def __post_init__(self) -> None:
        _check_window(self.start_event, self.n_events)

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Lose every attempt of every event inside the outage window."""
        return self.start_event <= event_index < self.start_event + self.n_events


@dataclass
class BurstLoss(FaultModel):
    """Bursty loss episodes from a Gilbert-Elliott chain, per attempt.

    The chain advances once per transmission attempt (not per event), so a
    retry fired into an ongoing bad-state episode is likely to fail again —
    the behaviour that makes bounded retries matter.

    Attributes:
        params: Gilbert-Elliott chain parameters.
    """

    params: GilbertElliottParams = field(default_factory=GilbertElliottParams)
    _channel: Optional[GilbertElliottChannel] = field(
        default=None, repr=False, compare=False
    )

    def reset(self, rng: np.random.Generator) -> None:
        """Rebuild the chain from the campaign seed stream."""
        self._channel = GilbertElliottChannel(
            self.params, seed=int(rng.integers(2**31))
        )

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Advance the chain one attempt; True when that attempt is lost."""
        if self._channel is None:
            raise ConfigurationError(
                "BurstLoss used outside a campaign: call reset() first"
            )
        return self._channel.next_outcome()


@dataclass
class PayloadCorruption(FaultModel):
    """Corruption of delivered bits, abstract or byte-level.

    Two modes:

    - ``"erasure"`` (default, the PR 1 behaviour): an abstract coin flip —
      the payload arrives but is declared unusable, indistinguishable from
      loss to the ARQ layer.  The CRC is *assumed* perfect.
    - ``"bitflip"``: no abstract loss; instead :meth:`corrupt_frame`
      mutates 1..``max_bit_flips`` random bits of the real encoded frame
      bytes with probability ``rate`` per frame.  Detection is then up to
      the receiver's actual integrity checks (:mod:`repro.hw.framing`) —
      without a CRC the corruption is silent by construction.

    A fully-corrupting channel (``rate = 1.0``) is legal in both modes: in
    erasure mode every attempt fails, so an *unbounded* ARQ policy raises
    :class:`~repro.errors.SimulationError` once it hits its simulated-try
    cap, while a bounded policy saturates at ``max_retries + 1`` tries and
    drops the payload — exactly the ``loss_rate = 1.0`` semantics of
    :class:`~repro.hw.arq.ARQConfig` (see
    ``ARQConfig.expected_transmissions``), never an infinite loop.

    Attributes:
        rate: Per-attempt (erasure) or per-frame (bitflip) corruption
            probability in [0, 1].
        mode: ``"erasure"`` or ``"bitflip"``.
        max_bit_flips: Upper bound on flipped bits per corrupted frame
            (bitflip mode); the actual count is uniform in
            ``[1, max_bit_flips]``.
    """

    rate: float = 0.01
    mode: str = "erasure"
    max_bit_flips: int = 4
    _rng: Optional[np.random.Generator] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("rate must be in [0, 1]")
        if self.mode not in ("erasure", "bitflip"):
            raise ConfigurationError(
                f"mode must be 'erasure' or 'bitflip', got {self.mode!r}"
            )
        if self.max_bit_flips < 1:
            raise ConfigurationError("max_bit_flips must be >= 1")

    def reset(self, rng: np.random.Generator) -> None:
        """Derive a private RNG from the campaign seed stream."""
        self._rng = np.random.default_rng(int(rng.integers(2**31)))

    def _require_rng(self) -> np.random.Generator:
        if self._rng is None:
            raise ConfigurationError(
                "PayloadCorruption used outside a campaign: call reset() first"
            )
        return self._rng

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Erasure mode: corrupt this attempt with probability ``rate``."""
        if self.mode != "erasure":
            return False
        return bool(self._require_rng().random() < self.rate)

    def corrupt_frame(
        self, event_index: int, attempt: int, frame_index: int, data: bytes
    ) -> bytes:
        """Bitflip mode: flip random bits of the frame with prob ``rate``."""
        if self.mode != "bitflip" or not data:
            return data
        rng = self._require_rng()
        if rng.random() >= self.rate:
            return data
        n_flips = int(rng.integers(1, self.max_bit_flips + 1))
        n_flips = min(n_flips, len(data) * 8)
        positions = rng.choice(len(data) * 8, size=n_flips, replace=False)
        mutated = bytearray(data)
        for pos in positions:
            mutated[int(pos) // 8] ^= 1 << (int(pos) % 8)
        return bytes(mutated)


@dataclass
class SensorBrownout(FaultModel):
    """Battery-sag window in which the sensor cannot operate at all.

    Attributes:
        start_event: First affected event index.
        n_events: Number of consecutive affected events.
    """

    start_event: int
    n_events: int

    def __post_init__(self) -> None:
        _check_window(self.start_event, self.n_events)

    def sensor_brownout(self, event_index: int) -> bool:
        """True inside the brownout window."""
        return self.start_event <= event_index < self.start_event + self.n_events


@dataclass
class AggregatorStall(FaultModel):
    """Aggregator-side stall inflating back-end service time.

    Attributes:
        start_event: First affected event index.
        n_events: Number of consecutive affected events.
        extra_delay_s: Service-time inflation per affected event.
    """

    start_event: int
    n_events: int
    extra_delay_s: float = 5e-3

    def __post_init__(self) -> None:
        _check_window(self.start_event, self.n_events)
        if self.extra_delay_s < 0:
            raise ConfigurationError("extra_delay_s must be >= 0")

    def stall_s(self, event_index: int) -> float:
        """The stall inflation inside the window, 0 outside."""
        in_window = (
            self.start_event <= event_index < self.start_event + self.n_events
        )
        return self.extra_delay_s if in_window else 0.0


@dataclass(frozen=True)
class DecisionRecord:
    """Outcome of one event under a fault campaign.

    Attributes:
        index: Event index.
        status: ``"delivered"``, ``"degraded"`` (served from the
            last-known-good cache) or ``"dropped"`` (no decision at all).
        tries: Link transmissions spent on the event (0 during brownout).
        latency_s: Release-to-decision latency; NaN when dropped.
        fallback: Whether the degradation policy had the deployment on the
            in-sensor fallback cut for this event.
        staleness: Age (events) of the served decision; 0 when fresh.
        corrupted: Whether the delivered payload differed from the sent
            one (silent corruption reached the decision layer); only ever
            True in byte-level integrity runs.
    """

    index: int
    status: str
    tries: int
    latency_s: float
    fallback: bool
    staleness: int
    corrupted: bool = False


@dataclass(frozen=True)
class ResilienceReport:
    """Aggregate outcome of one fault-campaign run.

    Attributes:
        records: Per-event decision records.
        sensor_energy_j: Total sensor energy, retries included.
        aggregator_energy_j: Total aggregator energy, retries included.
        retry_energy_j: Radio energy spent on retransmissions alone (the
            overhead the resilience layer pays for availability).
        retransmissions: Total retransmissions across the run.
        fallback_events: Events served while on the fallback cut.
        deadline_misses: Served events whose latency exceeded the period.
        frames_sent: Frames put on the air (byte-level integrity runs only;
            retransmitted frames count every time).
        frames_corrupted: Arrived frames whose bytes were mutated in flight.
        corruptions_detected: Arrived frames the receiver's integrity
            checks rejected (CRC/structural failures).
        corrupted_deliveries: Events delivered with a payload that differed
            from the transmitted one — silent corruption that reached the
            decision layer.
        integrity_discards: Events whose payload a detect-only receiver
            (CRC without retransmission) discarded after delivery.
    """

    records: List[DecisionRecord]
    sensor_energy_j: float
    aggregator_energy_j: float
    retry_energy_j: float
    retransmissions: int
    fallback_events: int
    deadline_misses: int
    frames_sent: int = 0
    frames_corrupted: int = 0
    corruptions_detected: int = 0
    corrupted_deliveries: int = 0
    integrity_discards: int = 0

    @cached_property
    def _status_counts(self) -> Dict[str, int]:
        """Status histogram, computed once per report instance."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    @cached_property
    def _served_latency_array(self) -> np.ndarray:
        """Latencies of served (non-dropped) events as one float64 array.

        Cached so the latency statistics below scan ``self.records`` once
        per report instead of once per property access.  Safe on a frozen
        dataclass: ``records`` is set at construction and never mutated.
        """
        return np.asarray(
            [r.latency_s for r in self.records if r.status != DROPPED],
            dtype=np.float64,
        )

    def _count(self, status: str) -> int:
        return self._status_counts.get(status, 0)

    @property
    def n_events(self) -> int:
        """Events simulated."""
        return len(self.records)

    @property
    def n_delivered(self) -> int:
        """Events whose decision arrived end-to-end."""
        return self._count(DELIVERED)

    @property
    def n_degraded(self) -> int:
        """Events served from the last-known-good cache."""
        return self._count(DEGRADED)

    @property
    def n_dropped(self) -> int:
        """Events that produced no decision at all."""
        return self._count(DROPPED)

    @property
    def availability(self) -> float:
        """Fraction of events that produced *some* decision."""
        if not self.records:
            return 1.0
        return (self.n_delivered + self.n_degraded) / self.n_events

    @property
    def dropped_decision_rate(self) -> float:
        """Fraction of events with no decision (1 - availability)."""
        return 1.0 - self.availability

    def _served_latencies(self) -> List[float]:
        return self._served_latency_array.tolist()

    @property
    def mean_latency_s(self) -> float:
        """Mean decision latency over served events.

        NaN when the campaign served nothing (every event dropped): an
        all-dropped run has no latency distribution, and NaN — rather
        than 0.0 or an exception — keeps the statistic honest, propagates
        through downstream arithmetic, and round-trips the canonical
        float codec (:func:`repro.sim.checkpoint.encode_float`) that
        checkpoints and report digests share.  Check :attr:`availability`
        before aggregating.
        """
        served = self._served_latency_array
        return float(np.mean(served)) if served.size else math.nan

    @property
    def max_latency_s(self) -> float:
        """Worst decision latency over served events.

        NaN for an all-dropped campaign, with the same semantics as
        :attr:`mean_latency_s` (no served events means no distribution).
        """
        served = self._served_latency_array
        return float(served.max()) if served.size else math.nan

    @property
    def worst_tries(self) -> int:
        """Largest per-payload transmission count seen in the run."""
        return max((r.tries for r in self.records), default=0)

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile over served events.

        NaN for an all-dropped campaign (guarded before ``np.percentile``,
        which would raise on an empty array); see :attr:`mean_latency_s`
        for the NaN contract.
        """
        if not 0 <= percentile <= 100:
            raise ConfigurationError("percentile must be in [0, 100]")
        served = self._served_latency_array
        return float(np.percentile(served, percentile)) if served.size else math.nan

    # -- integrity (byte-level runs) ----------------------------------------------

    @property
    def corruptions_silent(self) -> int:
        """Mutated frames that slipped past the receiver's checks."""
        return self.frames_corrupted - self.corruptions_detected

    @property
    def corruption_detection_rate(self) -> float:
        """Fraction of mutated arrived frames the receiver rejected.

        NaN when the run saw no corrupted frames (nothing to detect).
        """
        if self.frames_corrupted == 0:
            return math.nan
        return self.corruptions_detected / self.frames_corrupted

    @property
    def corrupted_delivery_rate(self) -> float:
        """Fraction of events whose delivered decision was corrupted."""
        if not self.records:
            return 0.0
        return self.corrupted_deliveries / self.n_events


def reports_identical(a: ResilienceReport, b: ResilienceReport) -> bool:
    """Field-exact comparison of two reports, treating NaN == NaN.

    Dataclass equality calls NaN latencies (dropped events) unequal, so
    ``a == b`` is False for any run with a drop even when the replay is
    perfect.  This helper compares every record field and every counter
    with NaN allowed to match NaN — the right notion of "bit-identical
    replay" for scalar-vs-fast and serial-vs-parallel equivalence checks.
    """
    if len(a.records) != len(b.records):
        return False
    for x, y in zip(a.records, b.records):
        if (x.index, x.status, x.tries, x.fallback, x.staleness, x.corrupted) != (
            y.index, y.status, y.tries, y.fallback, y.staleness, y.corrupted
        ):
            return False
        if x.latency_s != y.latency_s and not (
            math.isnan(x.latency_s) and math.isnan(y.latency_s)
        ):
            return False
    return all(
        getattr(a, name) == getattr(b, name)
        for name in _REPORT_FLOATS + _REPORT_INTS
    )


# -- report codec --------------------------------------------------------------

#: Byte-level counters of a run, in :class:`ResilienceReport` field order.
_WIRE_COUNTERS = (
    "frames_sent",
    "frames_corrupted",
    "corruptions_detected",
    "corrupted_deliveries",
    "integrity_discards",
)
_REPORT_FLOATS = ("sensor_energy_j", "aggregator_energy_j", "retry_energy_j")
_REPORT_INTS = ("retransmissions", "fallback_events", "deadline_misses") + (
    _WIRE_COUNTERS
)


def _encode_record(record: DecisionRecord) -> List[Any]:
    """JSON-safe row of one record, its latency bit-exact via ``float.hex()``."""
    return [
        record.index,
        record.status,
        record.tries,
        encode_float(record.latency_s),
        record.fallback,
        record.staleness,
        record.corrupted,
    ]


def _decode_record(row: Sequence[Any]) -> DecisionRecord:
    """Inverse of :func:`_encode_record`."""
    if row[1] not in (DELIVERED, DEGRADED, DROPPED):
        raise ValueError(f"unknown decision status {row[1]!r}")
    return DecisionRecord(
        index=int(row[0]),
        status=row[1],
        tries=int(row[2]),
        latency_s=decode_float(row[3]),
        fallback=bool(row[4]),
        staleness=int(row[5]),
        corrupted=bool(row[6]),
    )


def encode_report(report: ResilienceReport) -> Dict[str, Any]:
    """JSON-safe, bit-exact form of one report (every record and counter).

    The one report codec: checkpoints, sweep values, chaos outcomes and
    :func:`~repro.sim.chaos.report_digest` all go through it.
    """
    data: Dict[str, Any] = {"records": [_encode_record(r) for r in report.records]}
    for name in _REPORT_FLOATS:
        data[name] = encode_float(getattr(report, name))
    for name in _REPORT_INTS:
        data[name] = int(getattr(report, name))
    return data


def decode_report(data: Mapping[str, Any]) -> ResilienceReport:
    """Inverse of :func:`encode_report`."""
    kwargs: Dict[str, Any] = {
        "records": [_decode_record(row) for row in data["records"]]
    }
    for name in _REPORT_FLOATS:
        kwargs[name] = decode_float(data[name])
    for name in _REPORT_INTS:
        kwargs[name] = int(data[name])
    return ResilienceReport(**kwargs)


@dataclass(frozen=True)
class IntegrityConfig:
    """Byte-level data-plane configuration of a campaign run.

    When passed to :meth:`FaultCampaign.run`, every non-browned-out event
    carries a *real* payload: ``values_per_payload`` Q16.16 words are
    serialised, fragmented into frames (:mod:`repro.hw.framing`) and
    pushed through every fault model's :meth:`~FaultModel.corrupt_frame`
    hook on every transmission attempt.  The receiver then has to detect
    the damage with the configured wire format:

    - ``framing.crc = False`` models the unprotected baseline — payload
      bit flips decode fine and reach the decision layer silently;
    - ``framing.crc = True, retransmit_on_corrupt = False`` is a
      detect-only receiver: corrupted payloads are discarded (converted
      from silent corruption into visible unavailability);
    - ``framing.crc = True, retransmit_on_corrupt = True`` additionally
      treats a detected corruption like a lost attempt, so the bounded
      ARQ budget is spent recovering the payload.

    Attributes:
        framing: Wire-format parameters shared by sender and receiver.
        retransmit_on_corrupt: Whether a CRC failure triggers an ARQ
            retransmission (sequence-aware NACK/timeout recovery) instead
            of discarding the payload.
        values_per_payload: Q16.16 words carried per event payload.
    """

    framing: FramingConfig = field(default_factory=FramingConfig)
    retransmit_on_corrupt: bool = True
    values_per_payload: int = 8

    def __post_init__(self) -> None:
        if self.values_per_payload < 1:
            raise ConfigurationError("values_per_payload must be >= 1")


class FaultCampaign:
    """A seeded, replayable composition of fault models.

    Args:
        faults: The fault models to inject (evaluated for every event and
            every transmission attempt; their effects compose by OR for
            loss/brownout and by sum for stalls).
        seed: Campaign seed; :meth:`run` re-arms every stochastic fault
            from it, so repeated runs are bit-for-bit identical.
    """

    def __init__(self, faults: Sequence[FaultModel], seed: int = 0) -> None:
        if not faults:
            raise ConfigurationError("a campaign needs at least one fault model")
        for fault in faults:
            if not isinstance(fault, FaultModel):
                raise ConfigurationError(
                    f"not a FaultModel: {fault!r}"
                )
        self.faults = list(faults)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.reset()

    def reset(self) -> None:
        """Re-arm the campaign RNG and every fault model."""
        self._rng = np.random.default_rng(self.seed)
        for fault in self.faults:
            fault.reset(np.random.default_rng(int(self._rng.integers(2**31))))

    # -- composed per-event queries ---------------------------------------------

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Whether this transmission attempt is lost under any fault.

        Every fault model is consulted (no short-circuit) so stateful
        sources such as :class:`BurstLoss` advance exactly once per attempt.
        """
        outcomes = [f.try_lost(event_index, attempt) for f in self.faults]
        return any(outcomes)

    def sensor_brownout(self, event_index: int) -> bool:
        """Whether any fault browns out the sensor for this event."""
        outcomes = [f.sensor_brownout(event_index) for f in self.faults]
        return any(outcomes)

    def stall_s(self, event_index: int) -> float:
        """Total aggregator stall injected into this event."""
        return sum(f.stall_s(event_index) for f in self.faults)

    def corrupt_frame(
        self, event_index: int, attempt: int, frame_index: int, data: bytes
    ) -> bytes:
        """Pipe one frame's on-air bytes through every fault model."""
        for fault in self.faults:
            data = fault.corrupt_frame(event_index, attempt, frame_index, data)
        return data

    # -- the runner ---------------------------------------------------------------

    def supports_fast(self) -> bool:
        """Whether every fault model has an exact vectorized fast path.

        The fast path pre-samples each model's random stream in blocks,
        which is only provably bit-identical for the fault models this
        module ships.  Subclassed or third-party models fall back to the
        scalar runner.
        """
        return all(type(fault) in _FAST_PATH_TYPES for fault in self.faults)

    def run(
        self,
        simulator: CrossEndSimulator,
        n_events: int,
        arq: Optional[ARQConfig] = None,
        policy: Optional[GracefulDegradationPolicy] = None,
        fallback_metrics: Optional[PartitionMetrics] = None,
        cache: Optional[LastKnownGoodCache] = None,
        integrity: Optional[IntegrityConfig] = None,
        fast: Optional[bool] = None,
        breaker: Optional[object] = None,
        checkpoint: Optional[Checkpointer] = None,
        resume: bool = False,
    ) -> ResilienceReport:
        """Stream ``n_events`` through the system with faults injected.

        Args:
            simulator: Supplies the partition metrics (evaluated at
                ``loss_rate = 0`` — retries are simulated here), the event
                period and the jitter model.
            n_events: Events to stream (must be positive).
            arq: Retransmission policy; None selects the legacy unbounded
                stop-and-wait, whose per-payload delay is unbounded — a
                hard outage window then raises
                :class:`~repro.errors.SimulationError` (the divergence
                bounded ARQ exists to fix).
            policy: Optional outage-fallback policy; requires
                ``fallback_metrics``.  While it declares a persistent
                outage, events run on the fallback (in-sensor) metrics.
            fallback_metrics: Clean-link metrics of the in-sensor extreme
                cut used during fallback.
            cache: Optional last-known-good cache; when given, dropped
                payloads are served from it (status ``"degraded"``)
                instead of being dropped outright.
            integrity: Optional byte-level data plane.  When given, every
                event's payload is really serialised, framed and exposed
                to the fault models' ``corrupt_frame`` hooks, and the
                report's integrity counters (frames sent/corrupted,
                detections, silent corrupted deliveries, discards) are
                populated.  Payload *content* is drawn deterministically
                from the campaign seed, so runs stay bit-for-bit
                reproducible.
            fast: Runner selection.  ``None`` (default) picks the
                vectorized fast path when :meth:`supports_fast` allows it;
                ``False`` forces the scalar reference runner; ``True``
                requires the fast path and raises
                :class:`~repro.errors.ConfigurationError` when a fault
                model lacks one.  Both runners produce bit-identical
                reports under the same seed.
            breaker: Optional link circuit breaker
                (:class:`~repro.sim.supervise.LinkCircuitBreaker`); gates
                every non-browned-out event before the ARQ layer.  Blocked
                events keep the radio off (zero attempts, zero retry
                energy) and are served from the cache or dropped; probe
                events run with the breaker's reduced retry budget.
                Requires a bounded ``arq``.
            checkpoint: Optional :class:`~repro.sim.checkpoint.
                Checkpointer`; snapshots the complete run state (fault
                RNGs, clocks, counters, records) as a ``"campaign"``
                checkpoint every ``checkpoint.every`` events with
                crash-safe atomic writes.  The config key pins campaign
                seed, fault signatures, runner, ARQ, simulator, policy,
                cache, integrity and breaker configuration, so a
                checkpoint can never resume a different run.
            resume: Continue from ``checkpoint``'s last snapshot instead
                of starting at event 0.  The resumed run's report is
                bit-identical to an uninterrupted run on the same runner.

        Returns:
            The :class:`ResilienceReport`; bit-for-bit identical across
            repeated calls with the same arguments.
        """
        if n_events <= 0:
            raise ConfigurationError("n_events must be positive")
        if policy is not None and fallback_metrics is None:
            raise ConfigurationError(
                "a degradation policy requires fallback_metrics"
            )
        arq = UNBOUNDED_ARQ if arq is None else arq
        use_fast = self.supports_fast() if fast is None else bool(fast)
        if use_fast and not self.supports_fast():
            raise ConfigurationError(
                "fast=True needs fault models with an exact fast path "
                "(LinkOutage, BurstLoss, PayloadCorruption, SensorBrownout, "
                "AggregatorStall); pass fast=None or fast=False"
            )
        if breaker is not None and arq.max_retries is None:
            raise ConfigurationError(
                "a circuit breaker requires a bounded ARQConfig: its probe "
                "schedule counts whole events, which only terminate when "
                "the per-event retry budget is finite"
            )
        if resume and checkpoint is None:
            raise ConfigurationError("resume=True requires a checkpoint")
        return self._run(
            "fast" if use_fast else "scalar", simulator, n_events, arq,
            policy, fallback_metrics, cache, integrity, breaker, checkpoint,
            resume,
        )

    def _run(
        self,
        runner: str,
        simulator: CrossEndSimulator,
        n_events: int,
        arq: ARQConfig,
        policy: Optional[GracefulDegradationPolicy],
        fallback_metrics: Optional[PartitionMetrics],
        cache: Optional[LastKnownGoodCache],
        integrity: Optional[IntegrityConfig],
        breaker: Optional[object],
        checkpoint: Optional[Checkpointer],
        resume: bool,
    ) -> ResilienceReport:
        """The event loop of both runners (see :meth:`run`).

        ``runner`` only picks where fault outcomes, stage jitter and
        payloads come from (:class:`_LiveFaults` or :class:`_BlockFaults`);
        the clocks, energy and retry accounting, breaker gate, policy,
        cache, integrity counters and checkpoints are shared.
        """
        key = None
        if checkpoint is not None:
            key = self._checkpoint_key(
                runner, simulator, n_events, arq, policy, fallback_metrics,
                cache, integrity, breaker,
            )
        if resume:
            # Decoding re-arms the campaign, restores the fault, policy,
            # cache and breaker state and rebuilds the fault source.
            (
                source, start, (front_free, link_free, back_free),
                (sensor_j, aggregator_j, retry_j),
                (retransmissions, fallback_events, misses), records, wire,
            ) = checkpoint.load(
                "campaign",
                key,
                partial(
                    self._resume, runner=runner, simulator=simulator,
                    n_events=n_events, integrity=integrity, policy=policy,
                    cache=cache, breaker=breaker,
                ),
            )
        else:
            self.reset()
            for part in (policy, cache, breaker):
                if part is not None:
                    part.reset()
            source = _SOURCES[runner](self, simulator, n_events, integrity, 0, None)
            start = 0
            front_free = link_free = back_free = 0.0
            sensor_j = aggregator_j = retry_j = 0.0
            retransmissions = fallback_events = misses = 0
            records = []
            wire = dict.fromkeys(_WIRE_COUNTERS, 0)

        brownout, event, lost, stall = (
            source.brownout, source.event, source.lost, source.stall
        )
        corruptors = source.corruptors

        period = simulator.period_s
        framing = None if integrity is None else integrity.framing
        n_frames = _frames_per_payload(integrity)
        max_tries = None if arq.max_retries is None else arq.max_retries + 1
        backoffs = (
            None
            if max_tries is None
            else [0.0] + [arq.backoff_s(r) for r in range(1, max_tries)]
        )
        # A probe shares the campaign ARQ's backoffs with a smaller budget.
        probe_tries = (
            None if breaker is None else breaker.probe_arq(arq).max_retries + 1
        )

        for k in range(start, n_events):
            release = k * period
            in_fallback = policy is not None and policy.in_fallback
            if in_fallback:
                fallback_events += 1
            active = (
                fallback_metrics
                if (in_fallback and fallback_metrics is not None)
                else simulator.metrics
            )

            if brownout(k):
                # The sensor is dark: nothing acquired, nothing computed,
                # nothing transmitted.  Only the cache can answer.
                served = cache.serve() if cache is not None else None
                if served is not None:
                    records.append(
                        DecisionRecord(k, DEGRADED, 0, 0.0, in_fallback,
                                       served.staleness)
                    )
                else:
                    records.append(
                        DecisionRecord(k, DROPPED, 0, math.nan, in_fallback, 0)
                    )
            else:
                t_front, t_link, t_back, frames, chunks, payload = event(active)
                front_end = max(release, front_free) + t_front
                front_free = front_end
                sensor_j += active.sensor_compute_j

                tries = 0
                delivered = False
                link_end = front_end
                decision = "allow" if breaker is None else breaker.decide(k)
                # An open breaker ("block") keeps the radio off: the
                # decision layer sees the same drop signal an exhausted
                # ARQ would give, minus the retries' energy and latency.
                if decision != "block":
                    cap = probe_tries if decision == "probe" else max_tries
                    delay = 0.0
                    discarded = False
                    received: Optional[bytes] = None
                    while True:
                        tries += 1
                        delay = delay + t_link
                        failed = lost(k, tries)
                        if not failed and frames:
                            # An untouched frame's round trip is known to
                            # succeed, so only mutated frames are decoded.
                            mutated = detected = 0
                            parts: List[bytes] = []
                            for j, raw in enumerate(frames):
                                on_air = raw
                                for corruptor in corruptors:
                                    on_air = corruptor.corrupt_frame(
                                        k, tries, j, on_air
                                    )
                                if on_air == raw:
                                    parts.append(chunks[j])
                                    continue
                                mutated += 1
                                try:
                                    parts.append(
                                        decode_frame(on_air, framing).payload
                                    )
                                except IntegrityError:
                                    detected += 1
                            wire["frames_corrupted"] += mutated
                            wire["corruptions_detected"] += detected
                            if not detected:
                                discarded = False
                                received = b"".join(parts)
                            elif integrity.retransmit_on_corrupt:
                                failed = True
                            else:
                                discarded = True
                                received = None
                        if not failed:
                            delivered = True
                            break
                        if cap is not None and tries >= cap:
                            break
                        if tries >= DEFAULT_MAX_SIMULATED_TRIES:
                            raise SimulationError(
                                f"unbounded ARQ exceeded "
                                f"{DEFAULT_MAX_SIMULATED_TRIES} "
                                "tries on one payload: the channel never "
                                "recovered (retry storm); use a bounded "
                                "ARQConfig to keep per-payload delay finite"
                            )
                        if backoffs is not None:
                            delay = delay + backoffs[tries]

                    if breaker is not None:
                        breaker.record(k, delivered)
                    # Every attempt puts the event's whole frame set on air.
                    wire["frames_sent"] += tries * n_frames
                    link_end = max(front_end, link_free) + delay
                    link_free = link_end

                    per_try_radio = active.sensor_tx_j + active.sensor_rx_j
                    sensor_j += tries * per_try_radio
                    aggregator_j += tries * active.aggregator_radio_j
                    retransmissions += tries - 1
                    retry_j += (tries - 1) * (
                        per_try_radio + active.aggregator_radio_j
                    )
                    if delivered and discarded:
                        # Detect-only CRC: the link delivered, the
                        # receiver's integrity check rejected the payload
                        # at the app layer.
                        wire["integrity_discards"] += 1
                        delivered = False

                if delivered:
                    corrupted = bool(frames) and received != payload
                    if corrupted:
                        wire["corrupted_deliveries"] += 1
                    if policy is not None:
                        policy.observe(True)
                    if cache is not None:
                        cache.update(k)
                    finish = max(link_end, back_free) + t_back + stall(k)
                    back_free = finish
                    aggregator_j += active.aggregator_cpu_j
                    latency = finish - release
                    records.append(
                        DecisionRecord(k, DELIVERED, tries, latency,
                                       in_fallback, 0, corrupted)
                    )
                else:
                    if policy is not None:
                        policy.observe(False)
                    served = cache.serve() if cache is not None else None
                    if served is not None:
                        latency = link_end - release
                        records.append(
                            DecisionRecord(k, DEGRADED, tries, latency,
                                           in_fallback, served.staleness)
                        )
                    else:
                        latency = math.nan
                        records.append(
                            DecisionRecord(k, DROPPED, tries, math.nan,
                                           in_fallback, 0)
                        )

                if not math.isnan(latency):
                    if latency > period:
                        misses += 1
                    if latency > 1000 * period:
                        raise SimulationError(
                            f"event backlog diverges under faults at event "
                            f"{k}: latency {latency:.4f}s >> period "
                            f"{period:.4f}s"
                        )

            if checkpoint is not None and checkpoint.due(k + 1):
                clocks = (front_free, link_free, back_free)
                energies = (sensor_j, aggregator_j, retry_j)
                checkpoint.save("campaign", key, {
                    "cursor": k + 1,
                    "clocks": [encode_float(v) for v in clocks],
                    "energies": [encode_float(v) for v in energies],
                    "counters": [retransmissions, fallback_events, misses],
                    "records": [_encode_record(r) for r in records],
                    "wire": dict(wire),
                    "faults": [_fault_state(f) for f in self.faults],
                    "policy": None if policy is None else policy.state_dict(),
                    "cache": None if cache is None else cache.state_dict(),
                    "breaker": None if breaker is None else breaker.state_dict(),
                    "extra": source.state(),
                })

        return ResilienceReport(
            records=records,
            sensor_energy_j=sensor_j,
            aggregator_energy_j=aggregator_j,
            retry_energy_j=retry_j,
            retransmissions=retransmissions,
            fallback_events=fallback_events,
            deadline_misses=misses,
            **wire,
        )

    def _checkpoint_key(
        self,
        runner: str,
        simulator: CrossEndSimulator,
        n_events: int,
        arq: ARQConfig,
        policy: Optional[GracefulDegradationPolicy],
        fallback_metrics: Optional[PartitionMetrics],
        cache: Optional[LastKnownGoodCache],
        integrity: Optional[IntegrityConfig],
        breaker: Optional[Any],
    ) -> str:
        """Config key of a ``"campaign"`` checkpoint: the complete run setup."""
        return stable_digest({
            "campaign": {
                "seed": self.seed,
                "faults": [fault_signature(f) for f in self.faults],
            },
            "runner": runner,
            "n_events": int(n_events),
            "simulator": {
                "period_s": float(simulator.period_s),
                "jitter_sigma": float(simulator.jitter_sigma),
                "seed": int(simulator.seed),
                "metrics": _metrics_to_dict(simulator.metrics),
            },
            "arq": _arq_to_dict(arq),
            "policy": (
                None
                if policy is None
                else {
                    "outage_threshold": int(policy.outage_threshold),
                    "recovery_hysteresis": int(policy.recovery_hysteresis),
                }
            ),
            "fallback_metrics": (
                None
                if fallback_metrics is None
                else _metrics_to_dict(fallback_metrics)
            ),
            "cache": (
                None if cache is None else {"max_staleness": cache.max_staleness}
            ),
            "integrity": _integrity_to_dict(integrity),
            "breaker": None if breaker is None else asdict(breaker.config),
        })

    def _resume(
        self,
        state: Mapping[str, Any],
        runner: str,
        simulator: CrossEndSimulator,
        n_events: int,
        integrity: Optional[IntegrityConfig],
        policy: Optional[GracefulDegradationPolicy],
        cache: Optional[LastKnownGoodCache],
        breaker: Optional[Any],
    ) -> tuple:
        """Decode a ``"campaign"`` checkpoint state into the loop's variables.

        Re-arms the campaign, overwrites every stochastic fault's RNG
        position with the snapshot, restores the policy, cache and
        breaker, and rebuilds the runner's fault source from the
        snapshot's ``extra``.
        """
        cursor = int(state["cursor"])
        records = [_decode_record(row) for row in state["records"]]
        fault_states = state["faults"]
        if (
            not 0 <= cursor <= n_events
            or [r.index for r in records] != list(range(cursor))
            or len(fault_states) != len(self.faults)
        ):
            raise CheckpointError(
                f"checkpoint state does not fit this run: cursor {cursor}, "
                f"{len(records)} records, {len(fault_states)} fault states "
                f"for {n_events} events and {len(self.faults)} faults"
            )
        self.reset()
        for fault, fault_state in zip(self.faults, fault_states):
            _load_fault_state(fault, fault_state)
        for name, part in (("policy", policy), ("cache", cache), ("breaker", breaker)):
            if part is not None:
                part.load_state(state[name])
        source = _SOURCES[runner](
            self, simulator, n_events, integrity, cursor, dict(state["extra"])
        )
        front_free, link_free, back_free = map(decode_float, state["clocks"])
        sensor_j, aggregator_j, retry_j = map(decode_float, state["energies"])
        retransmissions, fallback_events, misses = map(int, state["counters"])
        wire = {name: int(state["wire"][name]) for name in _WIRE_COUNTERS}
        if min(retransmissions, fallback_events, misses, *wire.values()) < 0:
            raise CheckpointError("checkpoint holds a negative campaign counter")
        return (
            source, cursor, (front_free, link_free, back_free),
            (sensor_j, aggregator_j, retry_j),
            (retransmissions, fallback_events, misses), records, wire,
        )


# -- campaign checkpoint codecs ------------------------------------------------


def fault_signature(fault: Any) -> Dict[str, Any]:
    """Canonical configuration signature of one checkpointable fault model.

    Enters the campaign checkpoint's config key, so a resume against a
    campaign with different fault parameters (or order) is rejected.
    Raises :class:`~repro.errors.CheckpointError` for fault types that
    have no exact state snapshot (subclassed or third-party models).
    """
    if type(fault) is BurstLoss:
        return {"type": "BurstLoss", "params": asdict(fault.params)}
    if type(fault) is PayloadCorruption:
        return {
            "type": "PayloadCorruption",
            "rate": float(fault.rate),
            "mode": fault.mode,
            "max_bit_flips": int(fault.max_bit_flips),
        }
    for cls in (LinkOutage, SensorBrownout, AggregatorStall):
        if type(fault) is cls:
            data: Dict[str, Any] = {
                "type": cls.__name__,
                "start_event": int(fault.start_event),
                "n_events": int(fault.n_events),
            }
            if cls is AggregatorStall:
                data["extra_delay_s"] = float(fault.extra_delay_s)
            return data
    raise CheckpointError(
        f"cannot checkpoint campaigns containing {type(fault).__name__}: "
        "only the fault models shipped by repro.sim.faults have exact "
        "state snapshots"
    )


def _fault_state(fault: FaultModel) -> Dict[str, Any]:
    """Snapshot the mutable (RNG/chain) state of one armed fault model."""
    if type(fault) is BurstLoss:
        channel = fault._channel
        if channel is None:
            raise CheckpointError(
                "BurstLoss has no armed channel: reset the campaign first"
            )
        return {
            "kind": "burst",
            "rng": rng_state(channel._rng),
            "bad": bool(channel._bad),
        }
    if type(fault) is PayloadCorruption:
        return {"kind": "corruption", "rng": rng_state(fault._require_rng())}
    fault_signature(fault)  # reject unknown types with the clearer message
    return {"kind": "window"}


def _load_fault_state(fault: FaultModel, state: Mapping[str, Any]) -> None:
    """Restore :func:`_fault_state` output into an armed fault model."""
    if type(fault) is BurstLoss:
        channel = fault._channel
        if channel is None or state.get("kind") != "burst":
            raise CheckpointError("checkpoint fault state mismatch (BurstLoss)")
        channel._rng = restore_rng(state["rng"])
        channel._bad = bool(state["bad"])
        return
    if type(fault) is PayloadCorruption:
        if state.get("kind") != "corruption":
            raise CheckpointError(
                "checkpoint fault state mismatch (PayloadCorruption)"
            )
        fault._rng = restore_rng(state["rng"])
        return
    if state.get("kind") != "window":
        raise CheckpointError(
            f"checkpoint fault state mismatch ({type(fault).__name__})"
        )


def _arq_to_dict(arq: ARQConfig) -> Dict[str, Any]:
    """Canonical form of one ARQ policy (campaign keys, chaos bundles)."""
    return {
        "max_retries": arq.max_retries,
        "timeout_s": float(arq.timeout_s),
        "backoff_factor": float(arq.backoff_factor),
        "jitter_fraction": float(arq.jitter_fraction),
    }


def _integrity_to_dict(
    integrity: Optional[IntegrityConfig],
) -> Optional[Dict[str, Any]]:
    """Canonical form of one data-plane setup (campaign keys, chaos bundles)."""
    if integrity is None:
        return None
    return {
        "max_payload_bytes": integrity.framing.max_payload_bytes,
        "crc": integrity.framing.crc,
        "version": integrity.framing.version,
        "retransmit_on_corrupt": integrity.retransmit_on_corrupt,
        "values_per_payload": integrity.values_per_payload,
    }


#: Fault model types the campaign fast path can pre-sample exactly.
_FAST_PATH_TYPES = (
    LinkOutage,
    BurstLoss,
    PayloadCorruption,
    SensorBrownout,
    AggregatorStall,
)

#: Salt of the payload-word stream, which is seeded from the campaign
#: seed independently of the fault models' RNG stream, so the same
#: decisions cross the wire in every replay.
_PAYLOAD_SALT = 0xF7A3


def _frames_per_payload(integrity: Optional[IntegrityConfig]) -> int:
    """Frames one event payload fragments into (0 without a data plane)."""
    if integrity is None:
        return 0
    payload_len = integrity.values_per_payload * (Q16_16.total_bits // 8)
    return -(-payload_len // integrity.framing.max_payload_bytes)


class _LiveFaults:
    """Reference fault source: every fault model answers, event by event.

    Loss, brownout, stall and corruption are the campaign's composed
    per-event queries, so this is the only source that runs arbitrary
    :class:`FaultModel` subclasses.  Stage jitter and payload words are
    drawn per event; the checkpoint ``extra`` carries both generators and
    the frame sequence number, which a resume checks against the frames
    of the events before its event cursor ``start``.
    """

    def __init__(
        self,
        campaign: FaultCampaign,
        simulator: CrossEndSimulator,
        n_events: int,
        integrity: Optional[IntegrityConfig],
        start: int,
        extra: Optional[Dict[str, object]],
    ) -> None:
        self.brownout = campaign.sensor_brownout
        self.lost = campaign.try_lost
        self.stall = campaign.stall_s
        self.corruptors = campaign.faults
        self._integrity = integrity
        self._sigma = simulator.jitter_sigma
        self._payload_rng = np.random.default_rng([campaign.seed, _PAYLOAD_SALT])
        self._jitter_rng = (
            np.random.default_rng(simulator.seed) if self._sigma > 0 else None
        )
        self._seq_base = 0
        if extra is not None:
            self._payload_rng = restore_rng(extra["payload_rng"])
            if self._jitter_rng is not None:
                self._jitter_rng = restore_rng(extra["jitter_rng"])
            self._seq_base = int(extra["seq_base"])
            active = sum(not self.brownout(k) for k in range(start))
            if self._seq_base != active * _frames_per_payload(integrity) % SEQ_MODULUS:
                raise CheckpointError(
                    f"checkpoint frame sequence {self._seq_base} does not "
                    f"follow {active} transmitted events"
                )

    def event(self, metrics: PartitionMetrics):
        """Stage times, frames, chunks and payload of one live event."""
        times = (metrics.delay_front_s, metrics.delay_link_s, metrics.delay_back_s)
        if self._jitter_rng is not None:
            # Unit-mean lognormal jitter: exp(N(-sigma^2/2, sigma)).
            sigma = self._sigma
            factors = np.exp(
                self._jitter_rng.normal(-sigma**2 / 2.0, sigma, size=3)
            )
            times = tuple(b * f for b, f in zip(times, factors))
        integrity = self._integrity
        if integrity is None:
            return (*times, (), (), None)
        payload = encode_values(
            quantize_array(
                self._payload_rng.uniform(
                    -1000.0, 1000.0, integrity.values_per_payload
                )
            )
        )
        frames = fragment_payload(payload, self._seq_base, integrity.framing)
        self._seq_base = (self._seq_base + len(frames)) % SEQ_MODULUS
        step = integrity.framing.max_payload_bytes
        chunks = [payload[i : i + step] for i in range(0, len(payload), step)]
        return (*times, frames, chunks, payload)

    def state(self) -> Dict[str, object]:
        """Checkpoint ``extra``: the payload/jitter RNGs and frame seq."""
        return {
            "payload_rng": rng_state(self._payload_rng),
            "jitter_rng": (
                None if self._jitter_rng is None else rng_state(self._jitter_rng)
            ),
            "seq_base": self._seq_base,
        }


class _BlockFaults:
    """Pre-sampled fault source, exact only for :data:`_FAST_PATH_TYPES`.

    Window faults become per-event lists.  Every stochastic loss fault
    contributes one block draw (:meth:`~repro.sim.channel.
    GilbertElliottChannel.outcome_block`, ``Generator.random``); the
    OR-composed outcomes are served by a cursor that advances one slot
    per transmission attempt, which is the consumption order of
    :meth:`FaultCampaign.try_lost` (every fault, no short-circuit).
    Jitter factors and payload words are drawn as matrices and the
    frames batch-encoded.  Only bit-flip corruption stays per frame: its
    stream interleaves fixed- and variable-length draws, so block
    sampling cannot match the per-frame order.

    On resume, everything deterministic (windows, jitter, payloads) is
    recomputed from the seeds; only the composed outcomes drawn ahead of
    the snapshot, from RNGs that have since advanced, travel through the
    checkpoint ``extra`` as ``loss_remainder`` (with the active-event
    cursor ``a``, which a resume checks against its event cursor
    ``start``).
    """

    _GROW = 4096

    def __init__(
        self,
        campaign: FaultCampaign,
        simulator: CrossEndSimulator,
        n_events: int,
        integrity: Optional[IntegrityConfig],
        start: int,
        extra: Optional[Dict[str, object]],
    ) -> None:
        idx = np.arange(n_events)
        brownout = np.zeros(n_events, dtype=bool)
        outage = np.zeros(n_events, dtype=bool)
        stall = np.zeros(n_events, dtype=np.float64)
        self._draws: List[Callable[[int], np.ndarray]] = []
        self.corruptors: List[PayloadCorruption] = []
        for fault in campaign.faults:
            window = None
            if isinstance(fault, (SensorBrownout, LinkOutage, AggregatorStall)):
                window = (fault.start_event <= idx) & (
                    idx < fault.start_event + fault.n_events
                )
            if isinstance(fault, SensorBrownout):
                brownout |= window
            elif isinstance(fault, LinkOutage):
                outage |= window
            elif isinstance(fault, AggregatorStall):
                stall += np.where(window, fault.extra_delay_s, 0.0)
            elif isinstance(fault, BurstLoss):
                channel = fault._channel
                assert channel is not None  # armed by the campaign reset
                self._draws.append(channel.outcome_block)
            elif isinstance(fault, PayloadCorruption):
                if fault.mode == "erasure":
                    self._draws.append(
                        lambda n, rng=fault._require_rng(), rate=fault.rate: (
                            rng.random(n) < rate
                        )
                    )
                else:
                    self.corruptors.append(fault)
        self.brownout = brownout.tolist().__getitem__
        self.stall = stall.tolist().__getitem__
        self._outage = outage.tolist()
        self._loss: List[bool] = []
        self._att = 0  # attempt cursor into the composed loss outcomes
        self._a = 0  # active (non-browned-out) event counter
        if extra is not None:
            self._a = int(extra["a"])
            self._loss = [bool(v) for v in extra["loss_remainder"]]
            if self._a != start - int(brownout[:start].sum()):
                raise CheckpointError(
                    f"checkpoint active-event cursor {self._a} does not "
                    f"match event cursor {start}"
                )

        n_active = int(n_events - brownout.sum())
        sigma = simulator.jitter_sigma
        self._factors = None
        if sigma > 0:
            jitter_rng = np.random.default_rng(simulator.seed)
            self._factors = np.exp(
                jitter_rng.normal(-sigma**2 / 2.0, sigma, size=(n_active, 3))
            ).tolist()

        # Byte-level data plane: payload words and frames for the whole
        # run in one batch.  Without bit-flip corruptors the frame bytes
        # can never differ from what was sent, so only the frame *count*
        # is observable and the codec work is skipped entirely.
        self._n_frames = _frames_per_payload(integrity)
        self._payloads: List[bytes] = []
        self._chunks: List[bytes] = []
        self._frames: List[bytes] = []
        if integrity is None or not self.corruptors or not n_active:
            return
        step = integrity.framing.max_payload_bytes
        payload_len = integrity.values_per_payload * (Q16_16.total_bits // 8)
        payload_rng = np.random.default_rng([campaign.seed, _PAYLOAD_SALT])
        blob = encode_values(
            quantize_array(
                payload_rng.uniform(
                    -1000.0, 1000.0, (n_active, integrity.values_per_payload)
                )
            )
        )
        self._payloads = [
            blob[a * payload_len : (a + 1) * payload_len] for a in range(n_active)
        ]
        for payload in self._payloads:
            self._chunks.extend(
                payload[i : i + step] for i in range(0, payload_len, step)
            )
        total = n_active * self._n_frames
        matrix, lengths = encode_frames(
            self._chunks,
            np.arange(total) % SEQ_MODULUS,
            integrity.framing,
            last=(np.arange(total) % self._n_frames) == self._n_frames - 1,
        )
        self._frames = [
            matrix[r, : int(lengths[r])].tobytes() for r in range(total)
        ]

    def lost(self, event_index: int, attempt: int) -> bool:
        """Serve the next composed loss outcome (an outage loses anyway)."""
        att = self._att
        self._att = att + 1
        loss = self._loss
        if att >= len(loss):
            chunk = np.zeros(self._GROW, dtype=bool)
            for draw in self._draws:
                chunk |= draw(self._GROW)
            loss.extend(chunk.tolist())
        return self._outage[event_index] or loss[att]

    def event(self, metrics: PartitionMetrics):
        """Stage times, frames, chunks and payload of the next active event."""
        a = self._a
        self._a = a + 1
        t_front = metrics.delay_front_s
        t_link = metrics.delay_link_s
        t_back = metrics.delay_back_s
        if self._factors is not None:
            f_front, f_link, f_back = self._factors[a]
            t_front = t_front * f_front
            t_link = t_link * f_link
            t_back = t_back * f_back
        if not self._payloads:
            return t_front, t_link, t_back, (), (), None
        rows = slice(a * self._n_frames, (a + 1) * self._n_frames)
        return (
            t_front, t_link, t_back,
            self._frames[rows], self._chunks[rows], self._payloads[a],
        )

    def state(self) -> Dict[str, object]:
        """Checkpoint ``extra``: active cursor and loss outcomes drawn ahead."""
        remainder = [int(v) for v in self._loss[self._att :]]
        return {"a": self._a, "loss_remainder": remainder}


#: Fault source per runner name (the name checkpoints and replays record).
_SOURCES = {"scalar": _LiveFaults, "fast": _BlockFaults}

