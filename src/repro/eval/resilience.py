"""Resilience evaluation: availability and latency under fault injection.

The paper's evaluation assumes a loss-free channel; this harness measures
what the reproduction's resilience layer buys when the channel and the
node misbehave.  One seeded :class:`~repro.sim.faults.FaultCampaign`
(hard link outage + Gilbert-Elliott burst loss + payload corruption +
sensor brownout + aggregator stall) is replayed over the same partition
under three configurations:

1. **unbounded stop-and-wait** (the legacy ``1/(1-p)`` model) — a hard
   outage makes its per-payload delay diverge, which the runner surfaces
   as a :class:`~repro.errors.SimulationError` (reported as ``diverges``);
2. **bounded-retry ARQ** — per-payload delay stays finite, but payloads
   that exhaust the retry budget are dropped outright;
3. **bounded-retry ARQ + graceful degradation** — dropped payloads are
   served from the last-known-good cache and a persistent outage falls
   back to the in-sensor extreme cut, keeping decision availability high.

A second table gives the closed-form model comparison (expected
transmissions, delivery probability, worst-case transmissions) across
loss rates, including the ``p = 1`` boundary where the legacy expectation
is infinite and the truncated-geometric model saturates.

The *integrity* harness (:func:`integrity_reports` / :func:`integrity_rows`)
measures the byte-level data plane instead: real Q16.16 payloads are
framed (:mod:`repro.hw.framing`), real bits are flipped in flight, and
three wire formats compete on delivered-decision correctness and energy
overhead:

1. **no-crc** — unprotected frames; payload corruption decodes fine and
   reaches the decision layer silently;
2. **crc16 detect-only** — CRC-16/CCITT detects corruption and discards
   the payload, converting silent corruption into visible unavailability;
3. **crc16 + seq retransmit** — a detected corruption is treated as a
   lost attempt, so the bounded ARQ budget recovers the payload.

Framing overhead is charged honestly: the per-scenario metrics are
re-evaluated with a framed :class:`~repro.hw.wireless.WirelessLink`, so
header and CRC bits inflate radio energy and link delay.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.errors import ConfigurationError, SimulationError
from repro.eval.context import ExperimentContext
from repro.graph.cuts import sensor_cut
from repro.hw.arq import ARQConfig
from repro.hw.framing import FramingConfig
from repro.hw.wireless import WirelessLink
from repro.sim.evaluate import evaluate_partition
from repro.sim.faults import (
    AggregatorStall,
    BurstLoss,
    FaultCampaign,
    IntegrityConfig,
    LinkOutage,
    PayloadCorruption,
    ResilienceReport,
    SensorBrownout,
)
from repro.sim.channel import GilbertElliottParams
from repro.sim.lifetime import MODALITY_SAMPLE_RATES, event_period_s
from repro.sim.simulator import CrossEndSimulator
from repro.signals.datasets import TABLE1_CASES

#: Default bounded-retry policy used by the resilience harness.
DEFAULT_ARQ = ARQConfig(max_retries=3, timeout_s=2e-3, backoff_factor=2.0)

#: Scenario labels, in report order.
SCENARIOS = (
    "unbounded stop-and-wait (legacy)",
    "bounded-retry ARQ",
    "bounded ARQ + graceful degradation",
)


def default_campaign(n_events: int, seed: int = 11) -> FaultCampaign:
    """The standard fault mix, scaled to the run length.

    Injects a hard link outage (5% of the run), background Gilbert-Elliott
    burst loss, 1% payload corruption, a sensor brownout (0.5% of the run)
    and an aggregator stall window — all reproducible under ``seed``.
    """
    outage_len = max(10, n_events // 20)
    brownout_len = max(3, n_events // 200)
    stall_len = max(5, n_events // 50)
    return FaultCampaign(
        [
            BurstLoss(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
            PayloadCorruption(0.01),
            LinkOutage(start_event=n_events // 4, n_events=outage_len),
            SensorBrownout(start_event=(n_events * 3) // 5, n_events=brownout_len),
            AggregatorStall(
                start_event=(n_events * 4) // 5, n_events=stall_len,
                extra_delay_s=2e-3,
            ),
        ],
        seed=seed,
    )


def _scenario_row(
    label: str, report: Optional[ResilienceReport]
) -> Dict[str, object]:
    """One report (or a divergence marker) rendered as a result row."""
    if report is None:
        return {
            "scenario": label,
            "availability_pct": "diverges",
            "degraded_pct": "-",
            "dropped_pct": "-",
            "p99_latency_ms": "inf",
            "worst_latency_ms": "inf",
            "worst_tries": "unbounded",
            "retransmissions": "-",
            "retry_energy_uj": "-",
            "fallback_events": "-",
        }
    return {
        "scenario": label,
        "availability_pct": 100.0 * report.availability,
        "degraded_pct": 100.0 * report.n_degraded / report.n_events,
        "dropped_pct": 100.0 * report.dropped_decision_rate,
        "p99_latency_ms": 1e3 * report.latency_percentile(99),
        "worst_latency_ms": 1e3 * report.max_latency_s,
        "worst_tries": report.worst_tries,
        "retransmissions": report.retransmissions,
        "retry_energy_uj": 1e6 * report.retry_energy_j,
        "fallback_events": report.fallback_events,
    }


def resilience_reports(
    context: ExperimentContext,
    symbol: str = "C1",
    node: str = "90nm",
    wireless: str = "model2",
    n_events: int = 2000,
    seed: int = 11,
    arq: Optional[ARQConfig] = None,
) -> Dict[str, Optional[ResilienceReport]]:
    """Run the standard campaign under the three scenarios.

    Returns:
        Scenario label -> :class:`~repro.sim.faults.ResilienceReport`,
        with None where the legacy unbounded model diverged (retry storm
        during the hard outage).
    """
    arq = DEFAULT_ARQ if arq is None else arq
    topology = context.topology(symbol, node)
    lib = context.energy_library(node)
    link = WirelessLink(wireless)
    cpu = context.cpu

    generator = context.generator(symbol, node, wireless)
    primary = generator.generate().metrics
    fallback = evaluate_partition(topology, sensor_cut(topology), lib, link, cpu)

    spec = TABLE1_CASES[symbol]
    period = event_period_s(
        spec.segment_length, MODALITY_SAMPLE_RATES[spec.modality]
    )
    simulator = CrossEndSimulator(primary, period_s=period, seed=seed)
    campaign = default_campaign(n_events, seed=seed)

    reports: Dict[str, Optional[ResilienceReport]] = {}
    try:
        reports[SCENARIOS[0]] = campaign.run(simulator, n_events, arq=None)
    except SimulationError:
        reports[SCENARIOS[0]] = None
    reports[SCENARIOS[1]] = campaign.run(simulator, n_events, arq=arq)
    reports[SCENARIOS[2]] = campaign.run(
        simulator,
        n_events,
        arq=arq,
        policy=GracefulDegradationPolicy(outage_threshold=3, recovery_hysteresis=8),
        fallback_metrics=fallback,
        cache=LastKnownGoodCache(),
    )
    return reports


def resilience_rows(
    context: ExperimentContext,
    symbol: str = "C1",
    node: str = "90nm",
    wireless: str = "model2",
    n_events: int = 2000,
    seed: int = 11,
) -> List[Dict[str, object]]:
    """The scenario comparison as result rows (one per scenario)."""
    reports = resilience_reports(
        context, symbol, node, wireless, n_events=n_events, seed=seed
    )
    return [_scenario_row(label, reports[label]) for label in SCENARIOS]


#: Integrity scenario labels (wire formats), in report order.
INTEGRITY_SCENARIOS = (
    "no-crc",
    "crc16 detect-only",
    "crc16 + seq retransmit",
)


def integrity_campaign(
    n_events: int,
    seed: int = 11,
    corruption_rate: float = 0.05,
    max_bit_flips: int = 4,
) -> FaultCampaign:
    """The corruption-focused fault mix of the integrity harness.

    Injects byte-level bit flips (1..``max_bit_flips`` random bits per
    corrupted frame, probability ``corruption_rate`` per frame per
    attempt) on top of light Gilbert-Elliott burst loss, all reproducible
    under ``seed``.
    """
    return FaultCampaign(
        [
            BurstLoss(GilbertElliottParams(0.01, 0.20, 0.005, 0.5)),
            PayloadCorruption(
                corruption_rate, mode="bitflip", max_bit_flips=max_bit_flips
            ),
        ],
        seed=seed,
    )


def _integrity_scenario(label: str) -> IntegrityConfig:
    """Wire-format configuration of one integrity scenario."""
    if label not in INTEGRITY_SCENARIOS:
        raise ConfigurationError(
            f"unknown integrity scenario {label!r}; "
            f"available: {list(INTEGRITY_SCENARIOS)}"
        )
    return IntegrityConfig(
        framing=FramingConfig(crc=(label != INTEGRITY_SCENARIOS[0])),
        retransmit_on_corrupt=(label == INTEGRITY_SCENARIOS[2]),
    )


def integrity_reports(
    context: ExperimentContext,
    symbol: str = "C1",
    node: str = "90nm",
    wireless: str = "model2",
    n_events: int = 2000,
    seed: int = 11,
    arq: Optional[ARQConfig] = None,
    corruption_rate: float = 0.05,
) -> Dict[str, ResilienceReport]:
    """Run the corruption campaign under the three wire formats.

    Every scenario re-evaluates the partition with its own framed
    :class:`~repro.hw.wireless.WirelessLink`, so the reported energies and
    delays include the scenario's header/CRC overhead.

    Returns:
        Scenario label -> :class:`~repro.sim.faults.ResilienceReport`.
    """
    arq = DEFAULT_ARQ if arq is None else arq
    topology = context.topology(symbol, node)
    lib = context.energy_library(node)
    cpu = context.cpu
    in_sensor = context.generator(symbol, node, wireless).generate().partition.in_sensor

    spec = TABLE1_CASES[symbol]
    period = event_period_s(
        spec.segment_length, MODALITY_SAMPLE_RATES[spec.modality]
    )

    reports: Dict[str, ResilienceReport] = {}
    for label in INTEGRITY_SCENARIOS:
        integrity = _integrity_scenario(label)
        link = WirelessLink(wireless, framing=integrity.framing)
        metrics = evaluate_partition(topology, in_sensor, lib, link, cpu)
        simulator = CrossEndSimulator(metrics, period_s=period, seed=seed)
        campaign = integrity_campaign(
            n_events, seed=seed, corruption_rate=corruption_rate
        )
        reports[label] = campaign.run(
            simulator, n_events, arq=arq, integrity=integrity
        )
    return reports


def integrity_rows(
    context: ExperimentContext,
    symbol: str = "C1",
    node: str = "90nm",
    wireless: str = "model2",
    n_events: int = 2000,
    seed: int = 11,
    corruption_rate: float = 0.05,
) -> List[Dict[str, object]]:
    """The wire-format comparison as result rows (one per scenario).

    ``radio_overhead_pct`` is the scenario's sensor radio energy over the
    legacy unframed accounting — the honest price of wire integrity.
    """
    reports = integrity_reports(
        context, symbol, node, wireless,
        n_events=n_events, seed=seed, corruption_rate=corruption_rate,
    )
    topology = context.topology(symbol, node)
    lib = context.energy_library(node)
    cpu = context.cpu
    in_sensor = context.generator(symbol, node, wireless).generate().partition.in_sensor
    unframed = evaluate_partition(
        topology, in_sensor, lib, WirelessLink(wireless), cpu
    )

    rows: List[Dict[str, object]] = []
    for label in INTEGRITY_SCENARIOS:
        report = reports[label]
        integrity = _integrity_scenario(label)
        framed = evaluate_partition(
            topology, in_sensor, lib,
            WirelessLink(wireless, framing=integrity.framing), cpu,
        )
        detection = report.corruption_detection_rate
        rows.append(
            {
                "scenario": label,
                "availability_pct": 100.0 * report.availability,
                "corrupted_decision_pct": 100.0 * report.corrupted_delivery_rate,
                "frames_corrupted": report.frames_corrupted,
                "detected_pct": (
                    100.0 * detection if math.isfinite(detection) else "-"
                ),
                "silent_frames": report.corruptions_silent,
                "discards": report.integrity_discards,
                "retransmissions": report.retransmissions,
                "radio_overhead_pct": 100.0
                * (framed.sensor_wireless_j - unframed.sensor_wireless_j)
                / unframed.sensor_wireless_j,
                "sensor_uj_per_event": 1e6 * report.sensor_energy_j / n_events,
            }
        )
    return rows


def arq_model_rows(
    arq: Optional[ARQConfig] = None,
    loss_rates: tuple = (0.0, 0.3, 0.6, 0.9, 0.99, 1.0),
) -> List[Dict[str, object]]:
    """Closed-form legacy vs truncated-geometric comparison per loss rate."""
    arq = DEFAULT_ARQ if arq is None else arq
    rows: List[Dict[str, object]] = []
    for p in loss_rates:
        legacy = math.inf if p == 1.0 else 1.0 / (1.0 - p)
        rows.append(
            {
                "loss_rate": p,
                "legacy_expected_tx": legacy,
                "truncated_expected_tx": arq.expected_transmissions(p),
                "delivery_probability": arq.delivery_probability(p),
                "worst_case_tx": arq.worst_case_transmissions(),
            }
        )
    return rows
