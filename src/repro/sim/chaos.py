"""Adversarial chaos search over fault-mix space, with bit-exact replay.

The fixed seeded campaigns of :mod:`repro.eval.resilience` answer "does the
resilience layer survive *this* fault mix?"; this module answers the harder
question "what is the *worst* fault mix the resilience layer admits?" by
searching the bounded campaign-schedule space instead of replaying fixed
points in it.  The pipeline factors the way production chaos harnesses do:

- a **strategist** (:class:`ChaosStrategist`) proposes campaign schedules
  — outage/burst/corruption/brownout/stall parameters and timing — via
  seeded random sampling plus evolutionary hill-climbing mutation of the
  worst schedules found so far, all inside a bounded parameter grid
  (:class:`ChaosBounds`);
- a **driver** (:class:`ChaosDriver`) runs each schedule through the
  existing :class:`~repro.sim.faults.FaultCampaign` machinery under one
  fixed harness configuration (:class:`ChaosRunConfig`: bounded ARQ,
  graceful degradation, last-known-good cache, byte-level wire format);
- a **judge** (:class:`ChaosJudge`) scores each run on degradation rather
  than pass/fail: silent-corruption rate, unavailability, latency tail and
  battery impact versus the clean-run energy of the partition;
- an **orchestrator** (:func:`chaos_search`) tracks the Pareto-worst
  scenarios across generations and emits a **bit-exact replay bundle**
  (:func:`build_bundle`) for each: a self-contained JSON document carrying
  the scenario, the full harness configuration (partition metrics
  included, so no trained context is needed to replay) and the expected
  report digest.  :func:`replay_bundle` re-runs a bundle and
  :func:`assert_replay` asserts report identity.

Everything is deterministic: scenario keys and bundle IDs are SHA-256
digests of canonical JSON (never Python ``hash()``, which is salted per
interpreter run), the strategist's randomness flows from one seed, and the
fault campaigns re-arm from their own seeds, so the same search finds the
same worst cases and the same bundle replays to the same digest on any
machine.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ReplayMismatchError,
    SimulationError,
)
from repro.hw.arq import ARQConfig
from repro.hw.framing import FramingConfig
from repro.sim.channel import GilbertElliottParams
from repro.sim.checkpoint import (
    Checkpointer,
    decode_float,
    encode_float,
    restore_rng,
    rng_state,
    stable_digest,
    write_atomic,
)
from repro.sim.evaluate import PartitionMetrics, _metrics_from_dict, _metrics_to_dict
from repro.sim.faults import (
    AggregatorStall,
    BurstLoss,
    FaultCampaign,
    IntegrityConfig,
    LinkOutage,
    PayloadCorruption,
    ResilienceReport,
    SensorBrownout,
    _arq_to_dict,
    _integrity_to_dict,
    decode_report,
    encode_report,
)
from repro.sim.simulator import CrossEndSimulator

#: Schema marker stamped into every replay bundle.
BUNDLE_SCHEMA = "xpro-chaos-bundle-v1"

#: Hex digits kept for scenario keys and bundle IDs (of 64 total).
_ID_HEX = 16


# -- report digests ------------------------------------------------------------


def report_digest(report: ResilienceReport) -> str:
    """Bit-exact SHA-256 digest of one :class:`ResilienceReport`.

    Every record field and every counter enters the digest through the
    shared report codec (:func:`~repro.sim.faults.encode_report`); floats
    are hashed via ``float.hex()`` so NaN latencies (dropped events) and
    denormal-scale energies are captured exactly.  Two reports share a
    digest iff :func:`repro.sim.faults.reports_identical` holds.
    """
    counters = encode_report(report)
    records = counters.pop("records")
    return stable_digest({"records": records, "counters": counters})


# -- the scenario space --------------------------------------------------------


@dataclass(frozen=True)
class ChaosScenario:
    """One point of fault-mix space: a complete campaign schedule.

    Window lengths of 0 disable the corresponding fault; rates of 0 keep
    the corruptors armed but inert (they still consume their seeded RNG
    streams, which keeps the scenario -> campaign mapping a pure
    function).  All fields are JSON-scalar so the scenario canonicalises
    losslessly into replay bundles.

    Attributes:
        seed: Campaign seed (re-arms every fault model per run).
        n_events: Events streamed through the campaign.
        burst_p_gb / burst_p_bg / burst_loss_good / burst_loss_bad:
            Gilbert-Elliott chain parameters of the background burst loss.
        erasure_rate: Per-attempt abstract payload-corruption probability.
        bitflip_rate: Per-frame byte-level corruption probability.
        max_bit_flips: Upper bound on flipped bits per corrupted frame.
        outage_start / outage_len: Hard link-outage window (events).
        brownout_start / brownout_len: Sensor brownout window (events).
        stall_start / stall_len: Aggregator stall window (events).
        stall_ms: Service-time inflation inside the stall window (ms).
    """

    seed: int
    n_events: int
    burst_p_gb: float = 0.02
    burst_p_bg: float = 0.10
    burst_loss_good: float = 0.01
    burst_loss_bad: float = 0.6
    erasure_rate: float = 0.01
    bitflip_rate: float = 0.0
    max_bit_flips: int = 4
    outage_start: int = 0
    outage_len: int = 0
    brownout_start: int = 0
    brownout_len: int = 0
    stall_start: int = 0
    stall_len: int = 0
    stall_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.n_events < 1:
            raise ConfigurationError("n_events must be >= 1")
        for name in ("outage_len", "brownout_len", "stall_len"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        for name in ("outage_start", "brownout_start", "stall_start"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.stall_ms < 0:
            raise ConfigurationError("stall_ms must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe field dictionary (the canonical scenario form)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosScenario":
        """Rebuild a scenario from :meth:`to_dict` output.

        Each value is cast to its field's declared ``int``/``float`` type,
        so a hand-edited document fails here rather than inside a run.
        """
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigurationError(
                f"unknown chaos scenario fields: {sorted(unknown)}"
            )
        cast = {"int": int, "float": float}
        return cls(**{name: cast[fields[name].type](v) for name, v in data.items()})

    @property
    def key(self) -> str:
        """Stable scenario key (SHA-256 of the canonical spec, truncated)."""
        return stable_digest(self.to_dict())[:_ID_HEX]

    def to_campaign(self) -> FaultCampaign:
        """The seeded :class:`FaultCampaign` this schedule describes.

        The fault order is fixed (burst, erasure, bitflip, outage,
        brownout, stall) because campaign reset hands each fault its seed
        in list order — reordering would change every replay.
        """
        faults: List[Any] = [
            BurstLoss(
                GilbertElliottParams(
                    self.burst_p_gb,
                    self.burst_p_bg,
                    self.burst_loss_good,
                    self.burst_loss_bad,
                )
            ),
            PayloadCorruption(self.erasure_rate, mode="erasure"),
            PayloadCorruption(
                self.bitflip_rate, mode="bitflip", max_bit_flips=self.max_bit_flips
            ),
        ]
        if self.outage_len > 0:
            faults.append(
                LinkOutage(start_event=self.outage_start, n_events=self.outage_len)
            )
        if self.brownout_len > 0:
            faults.append(
                SensorBrownout(
                    start_event=self.brownout_start, n_events=self.brownout_len
                )
            )
        if self.stall_len > 0:
            faults.append(
                AggregatorStall(
                    start_event=self.stall_start,
                    n_events=self.stall_len,
                    extra_delay_s=self.stall_ms * 1e-3,
                )
            )
        return FaultCampaign(faults, seed=self.seed)


@dataclass(frozen=True)
class ChaosBounds:
    """The bounded parameter grid the strategist searches inside.

    Window lengths are bounded as fractions of the run so schedules stay
    comparable across run lengths; probability bounds respect the domain
    constraints of :class:`~repro.sim.channel.GilbertElliottParams` and
    :class:`~repro.sim.faults.PayloadCorruption`.
    """

    n_events: int
    max_outage_frac: float = 0.25
    max_brownout_frac: float = 0.10
    max_stall_frac: float = 0.15
    max_stall_ms: float = 10.0
    min_burst_p_gb: float = 0.002
    max_burst_p_gb: float = 0.20
    min_burst_p_bg: float = 0.02
    max_burst_p_bg: float = 0.50
    max_burst_loss_good: float = 0.05
    min_burst_loss_bad: float = 0.20
    max_burst_loss_bad: float = 0.95
    max_erasure_rate: float = 0.20
    max_bitflip_rate: float = 0.30
    max_bit_flips: int = 8

    def __post_init__(self) -> None:
        if self.n_events < 1:
            raise ConfigurationError("n_events must be >= 1")
        for name in ("max_outage_frac", "max_brownout_frac", "max_stall_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.max_bit_flips < 1:
            raise ConfigurationError("max_bit_flips must be >= 1")

    @property
    def max_outage_len(self) -> int:
        return int(self.max_outage_frac * self.n_events)

    @property
    def max_brownout_len(self) -> int:
        return int(self.max_brownout_frac * self.n_events)

    @property
    def max_stall_len(self) -> int:
        return int(self.max_stall_frac * self.n_events)


def _round6(value: float) -> float:
    """Quantise a searched float so canonical JSON stays short and stable."""
    return round(float(value), 6)


class ChaosStrategist:
    """Seeded schedule proposer: random exploration + worst-first mutation.

    The strategist never evaluates anything itself — it only emits
    :class:`ChaosScenario` candidates.  ``initial_population`` samples the
    bounded grid uniformly; ``evolve`` mutates the worst scenarios found
    so far (hill-climbing toward higher judge badness) while reserving a
    fresh-random fraction against local optima.  All draws come from one
    ``numpy`` generator seeded at construction, so a strategist is a pure
    function of ``(bounds, seed)``.
    """

    def __init__(
        self,
        bounds: ChaosBounds,
        seed: int = 0,
        elite: int = 3,
        fresh_fraction: float = 0.25,
        mutation_rate: float = 0.45,
    ) -> None:
        if elite < 1:
            raise ConfigurationError("elite must be >= 1")
        if not 0.0 <= fresh_fraction <= 1.0:
            raise ConfigurationError("fresh_fraction must be in [0, 1]")
        if not 0.0 < mutation_rate <= 1.0:
            raise ConfigurationError("mutation_rate must be in (0, 1]")
        self.bounds = bounds
        self.seed = int(seed)
        self.elite = int(elite)
        self.fresh_fraction = float(fresh_fraction)
        self.mutation_rate = float(mutation_rate)
        self._rng = np.random.default_rng(self.seed)

    # -- sampling helpers ------------------------------------------------------

    def _uniform(self, lo: float, hi: float) -> float:
        return _round6(lo + (hi - lo) * float(self._rng.random()))

    def _window(self, max_len: int) -> Tuple[int, int]:
        """A (start, length) window; zero-length windows disable the fault."""
        n = self.bounds.n_events
        length = int(self._rng.integers(0, max_len + 1))
        start = int(self._rng.integers(0, n)) if length else 0
        return start, length

    def _scenario_seed(self) -> int:
        return int(self._rng.integers(2**31))

    def random_scenario(self) -> ChaosScenario:
        """One uniform draw from the bounded grid."""
        b = self.bounds
        outage_start, outage_len = self._window(b.max_outage_len)
        brown_start, brown_len = self._window(b.max_brownout_len)
        stall_start, stall_len = self._window(b.max_stall_len)
        return ChaosScenario(
            seed=self._scenario_seed(),
            n_events=b.n_events,
            burst_p_gb=self._uniform(b.min_burst_p_gb, b.max_burst_p_gb),
            burst_p_bg=self._uniform(b.min_burst_p_bg, b.max_burst_p_bg),
            burst_loss_good=self._uniform(0.0, b.max_burst_loss_good),
            burst_loss_bad=self._uniform(b.min_burst_loss_bad, b.max_burst_loss_bad),
            erasure_rate=self._uniform(0.0, b.max_erasure_rate),
            bitflip_rate=self._uniform(0.0, b.max_bitflip_rate),
            max_bit_flips=int(self._rng.integers(1, b.max_bit_flips + 1)),
            outage_start=outage_start,
            outage_len=outage_len,
            brownout_start=brown_start,
            brownout_len=brown_len,
            stall_start=stall_start,
            stall_len=stall_len,
            stall_ms=self._uniform(0.0, b.max_stall_ms),
        )

    def initial_population(self, n: int) -> List[ChaosScenario]:
        """``n`` independent uniform draws (generation zero)."""
        if n < 1:
            raise ConfigurationError("population must be >= 1")
        return [self.random_scenario() for _ in range(n)]

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the strategist's RNG position as a JSON-safe dict.

        The configuration (bounds, seed, elite...) is not included —
        checkpoints pin it in their config key instead (see
        :func:`chaos_search`).
        """
        return {"rng": rng_state(self._rng)}

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._rng = restore_rng(state["rng"])

    # -- mutation --------------------------------------------------------------

    def _perturb_float(self, value: float, lo: float, hi: float) -> float:
        sigma = 0.2 * (hi - lo)
        mutated = value + sigma * float(self._rng.standard_normal())
        return _round6(min(hi, max(lo, mutated)))

    def _perturb_int(self, value: int, lo: int, hi: int) -> int:
        if hi <= lo:
            return lo
        step = max(1, (hi - lo) // 5)
        mutated = value + int(self._rng.integers(-step, step + 1))
        return min(hi, max(lo, mutated))

    def mutate(self, parent: ChaosScenario) -> ChaosScenario:
        """One evolutionary child: each gene perturbed with ``mutation_rate``.

        The child always receives a fresh campaign seed, so even a
        zero-gene mutation explores a new stochastic realisation of the
        same schedule.
        """
        b = self.bounds
        n = b.n_events
        changes: Dict[str, Any] = {"seed": self._scenario_seed()}
        flt = [
            ("burst_p_gb", b.min_burst_p_gb, b.max_burst_p_gb),
            ("burst_p_bg", b.min_burst_p_bg, b.max_burst_p_bg),
            ("burst_loss_good", 0.0, b.max_burst_loss_good),
            ("burst_loss_bad", b.min_burst_loss_bad, b.max_burst_loss_bad),
            ("erasure_rate", 0.0, b.max_erasure_rate),
            ("bitflip_rate", 0.0, b.max_bitflip_rate),
            ("stall_ms", 0.0, b.max_stall_ms),
        ]
        for name, lo, hi in flt:
            if self._rng.random() < self.mutation_rate:
                changes[name] = self._perturb_float(getattr(parent, name), lo, hi)
        ints = [
            ("max_bit_flips", 1, b.max_bit_flips),
            ("outage_start", 0, n - 1),
            ("outage_len", 0, b.max_outage_len),
            ("brownout_start", 0, n - 1),
            ("brownout_len", 0, b.max_brownout_len),
            ("stall_start", 0, n - 1),
            ("stall_len", 0, b.max_stall_len),
        ]
        for name, lo, hi in ints:
            if self._rng.random() < self.mutation_rate:
                changes[name] = self._perturb_int(getattr(parent, name), lo, hi)
        return replace(parent, **changes)

    def evolve(
        self, ranked_worst: Sequence[ChaosScenario], n: int
    ) -> List[ChaosScenario]:
        """Next generation from the worst-so-far ranking.

        Args:
            ranked_worst: Scenarios ordered worst (highest badness) first;
                the leading ``elite`` entries are the mutation parents.
            n: Population size of the next generation.
        """
        if not ranked_worst:
            return self.initial_population(n)
        parents = list(ranked_worst[: self.elite])
        out: List[ChaosScenario] = []
        for _ in range(n):
            if float(self._rng.random()) < self.fresh_fraction:
                out.append(self.random_scenario())
            else:
                pick = int(self._rng.integers(len(parents)))
                out.append(self.mutate(parents[pick]))
        return out


# -- the harness configuration -------------------------------------------------


@dataclass(frozen=True)
class ChaosRunConfig:
    """The fixed harness every chaos scenario runs under.

    Self-contained by design: the partition metrics are embedded (not
    referenced by case symbol), so a replay bundle carrying this config
    re-runs without a trained :class:`~repro.eval.context.
    ExperimentContext` — on any machine, bit-for-bit.

    Attributes:
        metrics: Clean-link metrics of the partition under test.
        fallback_metrics: Clean-link metrics of the in-sensor fallback cut
            used while the degradation policy declares an outage.
        period_s: Event release period.
        jitter_sigma / sim_seed: Jitter model of the simulator.
        arq: Bounded-retry ARQ policy.
        outage_threshold / recovery_hysteresis: Degradation-policy knobs.
        cache_max_staleness: Last-known-good staleness bound (events); a
            finite bound is what turns long outages into visible drops.
        integrity: Optional byte-level wire format of the run.  The chaos
            default is CRC-less framing — the adversarial worst case, in
            which bit flips reach the decision layer silently and the
            judge's silent-corruption axis carries signal.
    """

    metrics: PartitionMetrics
    fallback_metrics: Optional[PartitionMetrics]
    period_s: float
    jitter_sigma: float = 0.0
    sim_seed: int = 0
    arq: ARQConfig = field(
        default_factory=lambda: ARQConfig(
            max_retries=3, timeout_s=2e-3, backoff_factor=2.0
        )
    )
    outage_threshold: int = 3
    recovery_hysteresis: int = 8
    cache_max_staleness: Optional[int] = 16
    integrity: Optional[IntegrityConfig] = field(
        default_factory=lambda: IntegrityConfig(
            framing=FramingConfig(crc=False), retransmit_on_corrupt=False
        )
    )

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ConfigurationError("period_s must be positive")
        if not self.arq.bounded:
            raise ConfigurationError(
                "chaos runs require a bounded ARQ policy (an adversarial "
                "outage makes the unbounded model diverge by construction)"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical form (enters the bundle ID digest)."""
        return {
            "metrics": _metrics_to_dict(self.metrics),
            "fallback_metrics": (
                None
                if self.fallback_metrics is None
                else _metrics_to_dict(self.fallback_metrics)
            ),
            "period_s": float(self.period_s),
            "jitter_sigma": float(self.jitter_sigma),
            "sim_seed": int(self.sim_seed),
            "arq": _arq_to_dict(self.arq),
            "outage_threshold": int(self.outage_threshold),
            "recovery_hysteresis": int(self.recovery_hysteresis),
            "cache_max_staleness": self.cache_max_staleness,
            "integrity": _integrity_to_dict(self.integrity),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosRunConfig":
        """Rebuild a run config from :meth:`to_dict` output."""
        integrity = None
        if data.get("integrity") is not None:
            raw = data["integrity"]
            integrity = IntegrityConfig(
                framing=FramingConfig(
                    max_payload_bytes=int(raw["max_payload_bytes"]),
                    crc=bool(raw["crc"]),
                    version=int(raw["version"]),
                ),
                retransmit_on_corrupt=bool(raw["retransmit_on_corrupt"]),
                values_per_payload=int(raw["values_per_payload"]),
            )
        return cls(
            metrics=_metrics_from_dict(data["metrics"]),
            fallback_metrics=(
                None
                if data.get("fallback_metrics") is None
                else _metrics_from_dict(data["fallback_metrics"])
            ),
            period_s=float(data["period_s"]),
            jitter_sigma=float(data["jitter_sigma"]),
            sim_seed=int(data["sim_seed"]),
            arq=ARQConfig(
                max_retries=data["arq"]["max_retries"],
                timeout_s=float(data["arq"]["timeout_s"]),
                backoff_factor=float(data["arq"]["backoff_factor"]),
                jitter_fraction=float(data["arq"]["jitter_fraction"]),
            ),
            outage_threshold=int(data["outage_threshold"]),
            recovery_hysteresis=int(data["recovery_hysteresis"]),
            cache_max_staleness=data.get("cache_max_staleness"),
            integrity=integrity,
        )


class ChaosDriver:
    """Runs one scenario through the campaign machinery.

    The driver holds the fixed harness (:class:`ChaosRunConfig`) and turns
    each :class:`ChaosScenario` into one deterministic
    :meth:`~repro.sim.faults.FaultCampaign.run`.
    """

    def __init__(self, run_config: ChaosRunConfig) -> None:
        self.run_config = run_config
        self.simulator = CrossEndSimulator(
            run_config.metrics,
            period_s=run_config.period_s,
            jitter_sigma=run_config.jitter_sigma,
            seed=run_config.sim_seed,
        )
        self._policy = (
            None
            if run_config.fallback_metrics is None
            else GracefulDegradationPolicy(
                outage_threshold=run_config.outage_threshold,
                recovery_hysteresis=run_config.recovery_hysteresis,
            )
        )
        self._cache = LastKnownGoodCache(
            max_staleness=run_config.cache_max_staleness
        )

    def run(self, scenario: ChaosScenario) -> ResilienceReport:
        """One deterministic campaign run of ``scenario``."""
        return scenario.to_campaign().run(
            self.simulator,
            scenario.n_events,
            arq=self.run_config.arq,
            policy=self._policy,
            fallback_metrics=self.run_config.fallback_metrics,
            cache=self._cache,
            integrity=self.run_config.integrity,
        )


# -- the judge -----------------------------------------------------------------


@dataclass(frozen=True)
class ChaosWeights:
    """Axis weights folding a :class:`ChaosScore` into scalar badness."""

    unavailability: float = 1.0
    silent_corruption: float = 1.0
    latency_tail: float = 0.1
    battery_overhead: float = 0.1


@dataclass(frozen=True)
class ChaosScore:
    """Judge verdict on one run: degradation axes, all higher-is-worse.

    Attributes:
        unavailability: Fraction of events with no decision at all.
        silent_corruption: Fraction of events whose delivered decision was
            silently corrupted in flight.
        latency_tail: p99 decision latency over the event period (0 when
            nothing was served).
        battery_overhead: Fractional sensor-energy inflation versus the
            clean (fault-free) per-event figure of the partition.
        degraded_rate: Fraction of events served stale from the cache —
            reported for context, not part of badness (stale service is
            the degradation machinery *working*).
        badness: Weighted scalar the strategist climbs.
        diverged: True when the run aborted with a
            :class:`~repro.errors.SimulationError` (event backlog
            divergence); the score is then pinned maximally bad.
    """

    unavailability: float
    silent_corruption: float
    latency_tail: float
    battery_overhead: float
    degraded_rate: float
    badness: float
    diverged: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe field dictionary (embedded into replay bundles)."""
        return asdict(self)


class ChaosJudge:
    """Scores degradation instead of pass/fail.

    Args:
        period_s: Event period (latency-tail normaliser).
        clean_sensor_j: Fault-free per-event sensor energy of the
            partition under test (battery-impact reference).
        weights: Axis weights of the scalar badness.
    """

    #: Badness assigned to a diverged run (dominates every finite score).
    DIVERGED_BADNESS = 1e9

    def __init__(
        self,
        period_s: float,
        clean_sensor_j: float,
        weights: Optional[ChaosWeights] = None,
    ) -> None:
        if period_s <= 0:
            raise ConfigurationError("period_s must be positive")
        if clean_sensor_j <= 0:
            raise ConfigurationError("clean_sensor_j must be positive")
        self.period_s = float(period_s)
        self.clean_sensor_j = float(clean_sensor_j)
        self.weights = weights or ChaosWeights()

    def score(self, report: ResilienceReport) -> ChaosScore:
        """The degradation verdict on one campaign report."""
        unavailability = report.dropped_decision_rate
        silent = report.corrupted_delivery_rate
        p99 = report.latency_percentile(99)
        tail = 0.0 if math.isnan(p99) else p99 / self.period_s
        per_event = report.sensor_energy_j / max(1, report.n_events)
        battery = max(0.0, per_event / self.clean_sensor_j - 1.0)
        degraded = report.n_degraded / max(1, report.n_events)
        w = self.weights
        badness = (
            w.unavailability * unavailability
            + w.silent_corruption * silent
            + w.latency_tail * tail
            + w.battery_overhead * battery
        )
        return ChaosScore(
            unavailability=unavailability,
            silent_corruption=silent,
            latency_tail=tail,
            battery_overhead=battery,
            degraded_rate=degraded,
            badness=badness,
        )

    def diverged_score(self) -> ChaosScore:
        """Maximal-badness verdict for a run that diverged outright."""
        return ChaosScore(
            unavailability=1.0,
            silent_corruption=0.0,
            latency_tail=math.inf,
            battery_overhead=0.0,
            degraded_rate=0.0,
            badness=self.DIVERGED_BADNESS,
            diverged=True,
        )


# -- orchestration -------------------------------------------------------------


#: Score axes entering Pareto dominance, all maximised by the adversary.
PARETO_AXES = (
    "unavailability",
    "silent_corruption",
    "latency_tail",
    "battery_overhead",
)


@dataclass(frozen=True)
class ChaosOutcome:
    """One evaluated scenario: schedule, verdict and replay anchor.

    ``report`` is None only for diverged runs (there is nothing stable to
    digest); such outcomes never become replay bundles.
    """

    scenario: ChaosScenario
    score: ChaosScore
    report: Optional[ResilienceReport]
    report_digest: Optional[str]
    generation: int

    def axes(self) -> Tuple[float, ...]:
        """The Pareto coordinates of this outcome."""
        return tuple(getattr(self.score, name) for name in PARETO_AXES)


def _dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """Whether point ``a`` is at least as bad everywhere and worse somewhere."""
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def pareto_worst(outcomes: Sequence[ChaosOutcome]) -> List[ChaosOutcome]:
    """The non-dominated (Pareto-worst) subset, stable input order.

    Duplicate coordinate tuples keep their first representative only, so
    re-proposed identical scenarios cannot flood the archive.
    """
    frontier: List[ChaosOutcome] = []
    seen: set = set()
    for candidate in outcomes:
        axes = candidate.axes()
        if axes in seen:
            continue
        if any(_dominates(kept.axes(), axes) for kept in frontier):
            continue
        frontier = [k for k in frontier if not _dominates(axes, k.axes())]
        frontier.append(candidate)
        seen.add(axes)
    return frontier


@dataclass(frozen=True)
class ChaosSearchConfig:
    """Orchestrator knobs: population shape and the strategist seed."""

    population: int = 8
    generations: int = 4
    seed: int = 0
    elite: int = 3
    fresh_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ConfigurationError("population must be >= 1")
        if self.generations < 1:
            raise ConfigurationError("generations must be >= 1")


@dataclass(frozen=True)
class ChaosSearchResult:
    """Everything one adversarial search produced.

    Attributes:
        outcomes: Every distinct scenario evaluated, in evaluation order.
        frontier: The Pareto-worst subset of ``outcomes``.
        worst: The single worst outcome by scalar badness (ties broken by
            evaluation order).
        evaluations: Campaign runs actually executed (duplicates proposed
            by the strategist are served from the outcome memo).
    """

    outcomes: Tuple[ChaosOutcome, ...]
    frontier: Tuple[ChaosOutcome, ...]
    worst: ChaosOutcome
    evaluations: int


# -- search checkpoints --------------------------------------------------------


_SCORE_FLOATS = (
    "unavailability",
    "silent_corruption",
    "latency_tail",
    "battery_overhead",
    "degraded_rate",
    "badness",
)


def _encode_outcome(outcome: ChaosOutcome) -> Dict[str, Any]:
    """JSON-safe, bit-exact form of one outcome (hex-float score and report)."""
    score: Dict[str, Any] = {
        name: encode_float(getattr(outcome.score, name)) for name in _SCORE_FLOATS
    }
    score["diverged"] = bool(outcome.score.diverged)
    return {
        "scenario": outcome.scenario.to_dict(),
        "score": score,
        "report": None if outcome.report is None else encode_report(outcome.report),
        "report_digest": outcome.report_digest,
        "generation": int(outcome.generation),
    }


def _decode_outcome(data: Mapping[str, Any]) -> ChaosOutcome:
    """Inverse of :func:`_encode_outcome`."""
    score = data["score"]
    return ChaosOutcome(
        scenario=ChaosScenario.from_dict(data["scenario"]),
        score=ChaosScore(
            diverged=bool(score["diverged"]),
            **{name: decode_float(score[name]) for name in _SCORE_FLOATS},
        ),
        report=None if data["report"] is None else decode_report(data["report"]),
        report_digest=data["report_digest"],
        generation=int(data["generation"]),
    )


def _search_key(
    run_config: ChaosRunConfig,
    search: ChaosSearchConfig,
    bounds: ChaosBounds,
    judge: ChaosJudge,
) -> str:
    """Config key of a ``"chaos"`` checkpoint: harness, shape, bounds, judge."""
    return stable_digest({
        "run": run_config.to_dict(),
        "search": asdict(search),
        "bounds": asdict(bounds),
        "judge": {
            "period_s": float(judge.period_s),
            "clean_sensor_j": float(judge.clean_sensor_j),
            "weights": asdict(judge.weights),
        },
    })


def _resume_search(
    state: Mapping[str, Any], strategist: ChaosStrategist
) -> Tuple[int, int, List[ChaosScenario], List[ChaosOutcome], int]:
    """Decode a ``"chaos"`` checkpoint state; restores the strategist RNG.

    Returns the generation the search stopped inside, the index of that
    generation's next scenario, its full candidate population, every
    outcome evaluated so far (evaluation order) and the campaign runs
    executed so far.
    """
    strategist.load_state(state["strategist"])
    population = [ChaosScenario.from_dict(s) for s in state["population"]]
    outcomes = [_decode_outcome(o) for o in state["outcomes"]]
    evaluations = int(state["evaluations"])
    if not outcomes or len(outcomes) != evaluations:
        raise CheckpointError(
            f"checkpoint holds {len(outcomes)} outcomes of {evaluations} "
            "evaluations"
        )
    for scenario in population + [o.scenario for o in outcomes]:
        if scenario.n_events != strategist.bounds.n_events:
            raise CheckpointError(
                f"checkpoint scenario of {scenario.n_events} events in a "
                f"{strategist.bounds.n_events}-event search"
            )
        scenario.to_campaign()  # out-of-range fault parameters fail here
    return (
        int(state["generation"]),
        int(state["position"]),
        population,
        outcomes,
        evaluations,
    )


def chaos_search(
    run_config: ChaosRunConfig,
    search: Optional[ChaosSearchConfig] = None,
    bounds: Optional[ChaosBounds] = None,
    n_events: int = 400,
    judge: Optional[ChaosJudge] = None,
    checkpoint: Optional[Checkpointer] = None,
    resume: bool = False,
) -> ChaosSearchResult:
    """The orchestrator: strategist -> driver -> judge, generation by generation.

    Args:
        run_config: The fixed harness every scenario runs under.
        search: Population/generation shape (defaults to 8 x 4).
        bounds: Parameter grid (defaults to :class:`ChaosBounds` at
            ``n_events``); ``bounds.n_events`` wins over ``n_events`` when
            both are given.
        n_events: Run length when ``bounds`` is omitted.
        judge: Scoring override; the default judge normalises against the
            run config's period and clean sensor energy.
        checkpoint: Optional :class:`~repro.sim.checkpoint.Checkpointer`;
            snapshots the strategist RNG, the generation cursor, the
            population and every evaluated outcome (scores and reports
            hex-float encoded) as a ``"chaos"`` checkpoint every
            ``checkpoint.every`` campaign evaluations.  The config key
            pins the harness, search shape, bounds and judge.
        resume: Continue from ``checkpoint``'s last snapshot; the resumed
            search retraces the uninterrupted search exactly (same
            proposals, same frontier, same worst case).

    Returns:
        The :class:`ChaosSearchResult`; deterministic in all arguments.
    """
    search = search or ChaosSearchConfig()
    bounds = bounds or ChaosBounds(n_events=n_events)
    judge = judge or ChaosJudge(
        period_s=run_config.period_s,
        clean_sensor_j=run_config.metrics.sensor_total_j,
    )
    driver = ChaosDriver(run_config)
    strategist = ChaosStrategist(
        bounds,
        seed=search.seed,
        elite=search.elite,
        fresh_fraction=search.fresh_fraction,
    )

    if resume and checkpoint is None:
        raise ConfigurationError("resume=True requires a checkpoint")
    config_key = None
    if checkpoint is not None:
        config_key = _search_key(run_config, search, bounds, judge)
    if resume:
        (
            start_generation, start_position, population, outcomes, evaluations
        ) = checkpoint.load(
            "chaos", config_key, partial(_resume_search, strategist=strategist)
        )
    else:
        start_generation = start_position = evaluations = 0
        population = strategist.initial_population(search.population)
        outcomes = []
    memo = {o.scenario.key: o for o in outcomes}
    for generation in range(start_generation, search.generations):
        pos0 = start_position if generation == start_generation else 0
        for pos in range(pos0, len(population)):
            scenario = population[pos]
            key = scenario.key
            if key not in memo:
                try:
                    report = driver.run(scenario)
                except SimulationError:
                    outcome = ChaosOutcome(
                        scenario=scenario,
                        score=judge.diverged_score(),
                        report=None,
                        report_digest=None,
                        generation=generation,
                    )
                else:
                    outcome = ChaosOutcome(
                        scenario=scenario,
                        score=judge.score(report),
                        report=report,
                        report_digest=report_digest(report),
                        generation=generation,
                    )
                evaluations += 1
                memo[key] = outcome
                outcomes.append(outcome)
            if checkpoint is not None and checkpoint.due(evaluations):
                # The strategist RNG here is post-initial_population /
                # post-last-evolve, so a resume replays the next evolve
                # (and everything after it) identically.
                checkpoint.save("chaos", config_key, {
                    "strategist": strategist.state_dict(),
                    "generation": generation,
                    "position": pos + 1,
                    "population": [s.to_dict() for s in population],
                    "outcomes": [_encode_outcome(o) for o in outcomes],
                    "evaluations": evaluations,
                })
        ranked = sorted(
            outcomes, key=lambda o: o.score.badness, reverse=True
        )
        if generation + 1 < search.generations:
            population = strategist.evolve(
                [o.scenario for o in ranked], search.population
            )

    worst = max(outcomes, key=lambda o: o.score.badness)
    return ChaosSearchResult(
        outcomes=tuple(outcomes),
        frontier=tuple(pareto_worst(outcomes)),
        worst=worst,
        evaluations=evaluations,
    )


# -- replay bundles ------------------------------------------------------------


def build_bundle(
    scenario: ChaosScenario,
    run_config: ChaosRunConfig,
    report: ResilienceReport,
    score: Optional[ChaosScore] = None,
) -> Dict[str, Any]:
    """A self-contained, bit-exact replay bundle for one scenario.

    The bundle ID is the SHA-256 of the canonical ``(scenario, run)``
    spec — stable across interpreter runs and machines — and the expected
    block pins the :func:`report_digest` the replay must reproduce.
    """
    spec = {"scenario": scenario.to_dict(), "run": run_config.to_dict()}
    bundle: Dict[str, Any] = {
        "schema": BUNDLE_SCHEMA,
        "bundle_id": stable_digest(spec)[:_ID_HEX],
        "scenario": spec["scenario"],
        "scenario_key": scenario.key,
        "run": spec["run"],
        "expected": {
            "report_digest": report_digest(report),
            "availability": report.availability,
            "corrupted_delivery_rate": report.corrupted_delivery_rate,
            "retransmissions": report.retransmissions,
        },
    }
    if score is not None:
        bundle["score"] = score.to_dict()
    return bundle


def save_bundle(bundle: Dict[str, Any], directory: str | Path) -> Path:
    """Write one bundle as ``chaos-<bundle_id>.json`` under ``directory``.

    The write is atomic (temporary file plus ``os.replace``), so a crash
    mid-save never leaves a torn bundle behind.
    """
    return write_atomic(
        Path(directory) / f"chaos-{bundle['bundle_id']}.json",
        json.dumps(bundle, indent=2, sort_keys=True) + "\n",
    )


def load_bundle(path: str | Path) -> Dict[str, Any]:
    """Load and validate one replay bundle.

    Raises:
        ConfigurationError: The file is unreadable, not JSON, of another
            schema, edited after its ``bundle_id`` was computed, or holds
            a scenario, run config or ``expected.report_digest`` that
            does not decode.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read bundle {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != BUNDLE_SCHEMA:
        raise ConfigurationError(
            f"{path}: not a chaos replay bundle "
            f"(expected schema {BUNDLE_SCHEMA!r})"
        )
    for field_name in ("scenario", "run", "expected", "bundle_id"):
        if field_name not in data:
            raise ConfigurationError(f"{path}: bundle misses {field_name!r}")
    spec = {"scenario": data["scenario"], "run": data["run"]}
    expected_id = stable_digest(spec)[:_ID_HEX]
    if data["bundle_id"] != expected_id:
        raise ConfigurationError(
            f"{path}: bundle_id {data['bundle_id']} does not match its spec "
            f"digest {expected_id} (bundle edited by hand?)"
        )
    try:
        ChaosScenario.from_dict(data["scenario"]).to_campaign()
        ChaosRunConfig.from_dict(data["run"])
        digest = data["expected"]["report_digest"]
    except (
        LookupError,
        TypeError,
        ValueError,
        AttributeError,
        OverflowError,
        ConfigurationError,
    ) as exc:
        raise ConfigurationError(
            f"{path}: malformed bundle: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(digest, str):
        raise ConfigurationError(
            f"{path}: malformed bundle: expected.report_digest must be a string"
        )
    return data


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one bundle replay.

    Attributes:
        bundle_id: ID of the replayed bundle.
        digest: Digest of the re-run report.
        expected_digest: Digest the bundle pinned at capture time.
        report: The re-run report itself.
    """

    bundle_id: str
    digest: str
    expected_digest: str
    report: ResilienceReport

    @property
    def matches(self) -> bool:
        """Whether the replay reproduced the pinned digest bit-for-bit."""
        return self.digest == self.expected_digest


def replay_bundle(bundle: Dict[str, Any]) -> ReplayResult:
    """Re-run a bundle's scenario and compare report digests.

    Args:
        bundle: A loaded replay bundle (see :func:`load_bundle`).

    Returns:
        The :class:`ReplayResult`; check ``.matches`` or use
        :func:`assert_replay` to raise on mismatch.
    """
    scenario = ChaosScenario.from_dict(bundle["scenario"])
    report = ChaosDriver(ChaosRunConfig.from_dict(bundle["run"])).run(scenario)
    return ReplayResult(
        bundle_id=bundle["bundle_id"],
        digest=report_digest(report),
        expected_digest=bundle["expected"]["report_digest"],
        report=report,
    )


def assert_replay(bundle: Dict[str, Any]) -> ReplayResult:
    """:func:`replay_bundle`, raising :class:`ReplayMismatchError` on drift."""
    result = replay_bundle(bundle)
    if not result.matches:
        raise ReplayMismatchError(
            f"bundle {result.bundle_id} did not replay bit-identically: "
            f"report digest {result.digest} != expected "
            f"{result.expected_digest}"
        )
    return result
