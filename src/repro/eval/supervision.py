"""Supervision evaluation stage: breakers, fleet health, resume self-check.

:mod:`repro.sim.supervise` supplies the mechanisms (link circuit breaker,
per-device health state machine) and :mod:`repro.sim.checkpoint` the
crash-safe checkpoint/resume; this module binds them to the experiment harness and measures what they buy:

- :func:`flapping_campaign` builds the adversarial *flapping link* mix —
  background Gilbert-Elliott burst loss plus several hard
  :class:`~repro.sim.faults.LinkOutage` windows — the scenario in which
  an un-supervised sensor burns its full retry budget on every event of
  every dead window;
- :func:`supervision_eval` runs that mix with and without a
  :class:`~repro.sim.supervise.LinkCircuitBreaker` (both sides carry the
  graceful-degradation policy and last-known-good cache, so decision
  availability is served either way), drives a small device fleet
  through quarantine and recovery under a
  :class:`~repro.sim.supervise.FleetSupervisor`, and self-checks that an
  interrupted + resumed campaign reproduces the uninterrupted report
  bit-for-bit on both runners;
- :func:`check_supervision_gate` is the CI gate: the breaker must
  strictly reduce wasted retry radio energy, must not reduce decision
  availability, and resume must be bit-identical — anything else raises
  :class:`~repro.errors.SupervisionGateError`.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.errors import ConfigurationError, SupervisionGateError
from repro.eval.context import ExperimentContext, case_period_s
from repro.eval.jsonio import read_json_document, write_json_document
from repro.eval.resilience import DEFAULT_ARQ
from repro.graph.cuts import sensor_cut
from repro.hw.arq import ARQConfig
from repro.hw.wireless import WirelessLink
from repro.sim.channel import GilbertElliottParams
from repro.sim.chaos import report_digest
from repro.sim.checkpoint import Checkpointer
from repro.sim.evaluate import evaluate_partition
from repro.sim.faults import BurstLoss, FaultCampaign, LinkOutage
from repro.sim.parallel import derive_seeds
from repro.sim.simulator import CrossEndSimulator
from repro.sim.supervise import (
    BreakerConfig,
    FleetSupervisor,
    HealthPolicy,
    LinkCircuitBreaker,
    QUARANTINED,
    wasted_radio_j,
)

#: Schema marker of the supervision summary document.
SUMMARY_SCHEMA = "xpro-supervision-summary-v1"

#: Default breaker tuning of the supervision harness: open after three
#: consecutive exhausted-retry drops, probe after eight blocked events,
#: double the backoff per failed probe up to 64 events.
DEFAULT_BREAKER = BreakerConfig(
    failure_threshold=3,
    probe_backoff_events=8,
    backoff_factor=2.0,
    max_backoff_events=64,
    probe_retries=0,
)

#: Scenario labels, in report order.
SCENARIOS = (
    "degradation only (no breaker)",
    "degradation + circuit breaker",
)


def flapping_campaign(
    n_events: int,
    seed: int = 11,
    n_flaps: int = 3,
    flap_fraction: float = 0.08,
) -> FaultCampaign:
    """The flapping-link fault mix: repeated hard outages on a noisy link.

    Background Gilbert-Elliott burst loss plus ``n_flaps`` evenly spaced
    :class:`~repro.sim.faults.LinkOutage` windows, each roughly
    ``flap_fraction`` of the run, the first starting after about a sixth
    of the run (so the last-known-good cache is primed before the link
    first dies).  This is the scenario a circuit breaker exists for:
    without one, every event of every dead window burns the full ARQ
    retry budget for nothing.
    """
    if n_flaps < 1:
        raise ConfigurationError("n_flaps must be >= 1")
    if not 0.0 < flap_fraction < 1.0:
        raise ConfigurationError("flap_fraction must be in (0, 1)")
    first = max(8, n_events // 6)
    stride = (n_events - first) // n_flaps
    if stride < 6:
        raise ConfigurationError(
            f"n_events = {n_events} is too short for {n_flaps} outage "
            "windows; grow the run or reduce n_flaps"
        )
    flap_len = max(4, int(round(n_events * flap_fraction)))
    flap_len = min(flap_len, stride - 2)
    faults: List[Any] = [
        BurstLoss(GilbertElliottParams(0.01, 0.25, 0.005, 0.4))
    ]
    faults.extend(
        LinkOutage(start_event=first + i * stride, n_events=flap_len)
        for i in range(n_flaps)
    )
    return FaultCampaign(faults, seed=seed)


def _breaker_counters(breaker: Optional[LinkCircuitBreaker]) -> Dict[str, int]:
    """The breaker's observable activity counters (zeros without one)."""
    if breaker is None:
        return {"blocked_events": 0, "opens": 0, "probes": 0, "probe_successes": 0}
    return {
        "blocked_events": breaker.blocked_events,
        "opens": breaker.opens,
        "probes": breaker.probes,
        "probe_successes": breaker.probe_successes,
    }


def _scenario_row(
    label: str,
    report: Any,
    wasted_j: float,
    breaker: Optional[LinkCircuitBreaker],
) -> Dict[str, Any]:
    """One supervision scenario rendered as a JSON-safe result row."""
    counters = _breaker_counters(breaker)
    return {
        "scenario": label,
        "availability_pct": 100.0 * report.availability,
        "degraded_pct": 100.0 * report.n_degraded / report.n_events,
        "dropped_pct": 100.0 * report.dropped_decision_rate,
        "wasted_radio_uj": 1e6 * wasted_j,
        "retry_energy_uj": 1e6 * report.retry_energy_j,
        "retransmissions": report.retransmissions,
        "sensor_uj_per_event": 1e6 * report.sensor_energy_j / report.n_events,
        **counters,
    }


class _InterruptedRun(Exception):
    """Control-flow marker raised by :class:`_InterruptingCheckpointer`."""


class _InterruptingCheckpointer(Checkpointer):
    """Checkpointer that kills the run right after its Nth snapshot.

    Stands in for a crash in the resume self-check: the campaign dies
    mid-run with a durable snapshot on disk, exactly as a SIGKILL between
    events would leave it.
    """

    def __init__(self, path: str | Path, every: int, stop_after: int = 1) -> None:
        super().__init__(path, every=every)
        self.stop_after = int(stop_after)

    def save(self, *args: Any, **kwargs: Any) -> Path:
        """Write the snapshot, then abort the run once quota is reached."""
        path = super().save(*args, **kwargs)
        if self.saves >= self.stop_after:
            raise _InterruptedRun(str(path))
        return path


def _resume_block(
    simulator: CrossEndSimulator,
    campaign: FaultCampaign,
    n_events: int,
    arq: ARQConfig,
    fallback: Any,
    breaker_config: BreakerConfig,
) -> Dict[str, Any]:
    """Interrupt + resume the breaker campaign on both runners.

    For each runner the uninterrupted report is the reference; a second
    run is killed right after its first checkpoint snapshot and resumed
    from disk.  The block records both digests per runner plus the
    cross-runner comparison.
    """
    every = max(1, n_events // 3)
    runners: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(prefix="xpro-supervision-") as tmp:
        for runner, fast in (("fast", True), ("scalar", False)):
            path = Path(tmp) / f"resume-{runner}.json"

            def run(checkpoint: Optional[object], resume: bool) -> Any:
                return campaign.run(
                    simulator,
                    n_events,
                    arq=arq,
                    policy=GracefulDegradationPolicy(
                        outage_threshold=3, recovery_hysteresis=8
                    ),
                    fallback_metrics=fallback,
                    cache=LastKnownGoodCache(),
                    breaker=LinkCircuitBreaker(breaker_config),
                    fast=fast,
                    checkpoint=checkpoint,
                    resume=resume,
                )

            reference = run(None, False)
            try:
                run(_InterruptingCheckpointer(path, every=every), False)
            except _InterruptedRun:
                pass
            resumed = run(Checkpointer(path, every=every), True)
            runners[runner] = {
                "reference_digest": report_digest(reference),
                "resumed_digest": report_digest(resumed),
                "bit_identical": report_digest(reference)
                == report_digest(resumed),
            }
    cross = (
        runners["fast"]["reference_digest"]
        == runners["scalar"]["reference_digest"]
    )
    return {
        "checkpoint_every": every,
        "runners": runners,
        "runners_identical": cross,
        "bit_identical": cross
        and all(r["bit_identical"] for r in runners.values()),
    }


def _fleet_block(
    primary: Any,
    period: float,
    seed: int,
    n_devices: int,
    rounds: int,
    round_events: int,
    arq: ARQConfig,
) -> Dict[str, Any]:
    """Drive a small fleet through quarantine and recovery.

    Every device runs a light burst-loss campaign each scheduled round,
    except the last device, whose first round is the flapping-link mix —
    availability collapses, the supervisor quarantines it, rests it, and
    walks it back through recovering probation on clean rounds.
    """
    if n_devices < 2:
        raise ConfigurationError("the fleet demo needs at least 2 devices")
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    names = [f"node{i:02d}" for i in range(n_devices)]
    sick = names[-1]
    supervisor = FleetSupervisor(names, HealthPolicy())
    seeds = derive_seeds(seed, n_devices * rounds)
    history: List[Dict[str, Any]] = []
    for r in range(rounds):
        scheduled = supervisor.schedulable()
        reports = {}
        for name in scheduled:
            task_seed = seeds[r * n_devices + names.index(name)]
            if name == sick and r == 0:
                campaign = flapping_campaign(
                    round_events, seed=task_seed, flap_fraction=0.12
                )
            else:
                campaign = FaultCampaign(
                    [BurstLoss(GilbertElliottParams(0.01, 0.25, 0.005, 0.4))],
                    seed=task_seed,
                )
            device_sim = CrossEndSimulator(
                primary, period_s=period, seed=task_seed
            )
            reports[name] = campaign.run(device_sim, round_events, arq=arq)
        supervisor.observe_round(reports)
        history.append(
            {"round": r, "scheduled": scheduled, "states": supervisor.states()}
        )
    sick_device = supervisor.device(sick)
    return {
        "devices": names,
        "sick_device": sick,
        "rounds": rounds,
        "round_events": round_events,
        "history": history,
        "final_states": supervisor.states(),
        "state_counts": supervisor.state_counts(),
        "sick_quarantines": sick_device.quarantines,
        "sick_final_state": sick_device.state,
        "sick_rest_rounds": sick_device.accounting[QUARANTINED]["rounds"],
    }


def supervision_eval(
    context: ExperimentContext,
    symbol: str = "C1",
    node: str = "90nm",
    wireless: str = "model2",
    n_events: int = 800,
    seed: int = 11,
    arq: Optional[ARQConfig] = None,
    breaker: Optional[BreakerConfig] = None,
    devices: int = 4,
    rounds: int = 6,
    round_events: int = 150,
    verify_resume: bool = True,
) -> Dict[str, Any]:
    """Run the full supervision stage and summarise the outcome.

    Args:
        context: Trained experiment context supplying the partition.
        symbol / node / wireless: Case under test (as the other evals).
        n_events: Events per flapping-link campaign run.
        seed: Campaign, simulator and fleet master seed.
        arq: Bounded retry policy (defaults to the resilience harness's
            :data:`~repro.eval.resilience.DEFAULT_ARQ`).
        breaker: Breaker tuning (defaults to :data:`DEFAULT_BREAKER`).
        devices / rounds / round_events: Fleet demo shape.
        verify_resume: Run the interrupt + resume self-check on both
            runners (skippable for speed; the gate then has no resume
            evidence and fails).

    Returns:
        A JSON-safe summary document (:data:`SUMMARY_SCHEMA`) whose
        ``breaker_saves_energy`` / ``availability_preserved`` /
        ``resume_bit_identical`` flags feed :func:`check_supervision_gate`.
    """
    arq = DEFAULT_ARQ if arq is None else arq
    breaker_config = DEFAULT_BREAKER if breaker is None else breaker
    if arq.max_retries is None:
        raise ConfigurationError(
            "the supervision stage needs a bounded ARQConfig"
        )

    topology = context.topology(symbol, node)
    lib = context.energy_library(node)
    link = WirelessLink(wireless)
    cpu = context.cpu
    primary = context.generator(symbol, node, wireless).generate().metrics
    fallback = evaluate_partition(topology, sensor_cut(topology), lib, link, cpu)

    period = case_period_s(symbol)
    simulator = CrossEndSimulator(primary, period_s=period, seed=seed)
    campaign = flapping_campaign(n_events, seed=seed)

    def run_scenario(with_breaker: bool):
        brk = LinkCircuitBreaker(breaker_config) if with_breaker else None
        report = campaign.run(
            simulator,
            n_events,
            arq=arq,
            policy=GracefulDegradationPolicy(
                outage_threshold=3, recovery_hysteresis=8
            ),
            fallback_metrics=fallback,
            cache=LastKnownGoodCache(),
            breaker=brk,
        )
        return report, brk

    report_off, _ = run_scenario(False)
    report_on, brk = run_scenario(True)
    wasted_off = wasted_radio_j(report_off, primary, fallback)
    wasted_on = wasted_radio_j(report_on, primary, fallback)
    scenario_rows = [
        _scenario_row(SCENARIOS[0], report_off, wasted_off, None),
        _scenario_row(SCENARIOS[1], report_on, wasted_on, brk),
    ]

    fleet = _fleet_block(primary, period, seed, devices, rounds, round_events, arq)
    resume = (
        _resume_block(simulator, campaign, n_events, arq, fallback, breaker_config)
        if verify_resume
        else None
    )

    breaker_saves_energy = (
        wasted_on < wasted_off and brk is not None and brk.blocked_events > 0
    )
    availability_preserved = (
        report_on.availability + 1e-12 >= report_off.availability
    )
    resume_bit_identical = bool(resume and resume["bit_identical"])
    return {
        "schema": SUMMARY_SCHEMA,
        "config": {
            "symbol": symbol,
            "node": node,
            "wireless": wireless,
            "n_events": n_events,
            "seed": seed,
            "arq": {
                "max_retries": arq.max_retries,
                "timeout_s": arq.timeout_s,
                "backoff_factor": arq.backoff_factor,
            },
            "breaker": asdict(breaker_config),
            "devices": devices,
            "rounds": rounds,
            "round_events": round_events,
        },
        "scenarios": scenario_rows,
        "fleet": fleet,
        "resume": resume,
        "wasted_radio_saved_uj": 1e6 * (wasted_off - wasted_on),
        "breaker_saves_energy": breaker_saves_energy,
        "availability_preserved": availability_preserved,
        "resume_bit_identical": resume_bit_identical,
    }


def supervision_rows(summary: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Scenario rows of one summary for :func:`repro.eval.tables.format_table`."""
    return [dict(row) for row in summary["scenarios"]]


def fleet_rows(summary: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-device fleet outcome rows (final state, quarantine count)."""
    fleet = summary["fleet"]
    return [
        {
            "device": name,
            "final_state": state,
            "quarantines": (
                summary["fleet"]["sick_quarantines"]
                if name == fleet["sick_device"]
                else 0
            ),
        }
        for name, state in fleet["final_states"].items()
    ]


def write_supervision_summary(
    summary: Dict[str, Any], path: str | Path
) -> Path:
    """Serialise a supervision summary to pretty-printed JSON."""
    return write_json_document(summary, path)


def load_supervision_summary(path: str | Path) -> Dict[str, Any]:
    """Load a supervision summary, validating the schema marker."""
    return read_json_document(path, SUMMARY_SCHEMA, "supervision summary")


def supervision_failures(summary: Dict[str, Any]) -> List[str]:
    """The gate conditions, as human-readable failure lines.

    Empty when the breaker strictly reduced wasted retry radio energy
    without reducing decision availability and the interrupt + resume
    self-check reproduced the reference reports bit-for-bit.
    """
    failures: List[str] = []
    if not summary.get("breaker_saves_energy", False):
        failures.append(
            "breaker_saves_energy: the circuit breaker did not strictly "
            "reduce wasted retry radio energy under the flapping-link mix"
        )
    if not summary.get("availability_preserved", False):
        failures.append(
            "availability_preserved: the breaker scenario lost decision "
            "availability relative to the breaker-free scenario"
        )
    if not summary.get("resume_bit_identical", False):
        failures.append(
            "resume_bit_identical: an interrupted + resumed campaign did "
            "not reproduce the uninterrupted report on both runners"
        )
    return failures


def check_supervision_gate(summary: Dict[str, Any]) -> None:
    """Raise :class:`SupervisionGateError` when the gate fails."""
    failures = supervision_failures(summary)
    if failures:
        raise SupervisionGateError(
            "supervision gate failed:\n  " + "\n  ".join(failures)
        )
