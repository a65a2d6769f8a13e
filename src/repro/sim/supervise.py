"""Fleet supervision: health states, circuit breakers, checkpoint/resume.

Long campaigns and population-scale fleets need a supervisory tier above
the per-event machinery of :mod:`repro.sim.faults`:

- a per-device **health state machine** (:class:`DeviceHealth`,
  :class:`FleetSupervisor`): campaign outcomes drive each device through
  ``healthy -> degraded -> quarantined -> recovering``, quarantine removes
  the device from TDMA/MIMO scheduling (:meth:`FleetSupervisor.
  filter_nodes`), and drop/degraded/battery figures are accounted per
  state so operators can see what each state costs;
  :class:`HealthColumns` steps the same machine for a whole fleet as
  integer columns with mask transitions (the fleet engine's path, with
  :class:`DeviceHealth` as its oracle);
- a **link circuit breaker** (:class:`LinkCircuitBreaker`): after
  ``failure_threshold`` consecutive exhausted-retry drops the breaker
  opens and the sensor stops burning radio energy on a dead link,
  re-probing on an exponential-backoff schedule of whole events.  The
  breaker is a plain deterministic state machine — campaigns that carry
  one replay bit-for-bit — and composes with
  :class:`~repro.core.degrade.GracefulDegradationPolicy` (a blocked event
  is a drop signal to the policy, so an open breaker drives the
  deployment onto the in-sensor fallback cut);
- **crash-safe checkpoint/resume** for :meth:`~repro.sim.faults.
  FaultCampaign.run` (:class:`CampaignCheckpointer`), :func:`~repro.sim.
  parallel.sweep` (:class:`SweepCheckpointer`) and :func:`~repro.sim.
  chaos.chaos_search` (:class:`ChaosCheckpointer`).  Snapshots carry RNG
  bit-generator state, the campaign cursor, accumulated counters and the
  evaluated-outcome archive as digest-pinned canonical JSON (the PR-6
  replay-bundle discipline: floats via ``float.hex()``, identifiers via
  SHA-256, never ``hash()``), so a resumed run reproduces the
  uninterrupted run's report **bit-for-bit** on both the fast and scalar
  campaign runners.

Checkpoint files are self-validating: a ``config_key`` digest pins the
exact run configuration (campaign seed, fault signatures, runner, ARQ,
policy, simulator and breaker parameters), and a ``state_digest`` pins
the state payload, so a checkpoint written by a different run — or edited
by hand — is rejected with :class:`~repro.errors.CheckpointError` instead
of silently resuming the wrong campaign.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.hw.arq import ARQConfig
from repro.sim.chaos import (
    ChaosOutcome,
    ChaosScenario,
    ChaosScore,
    _metrics_to_dict,
    canonical_json,
    stable_digest,
)
from repro.sim.faults import (
    DELIVERED,
    AggregatorStall,
    BurstLoss,
    DecisionRecord,
    LinkOutage,
    PayloadCorruption,
    ResilienceReport,
    SensorBrownout,
)

#: Schema marker stamped into every checkpoint file.
CHECKPOINT_SCHEMA = "xpro-checkpoint-v1"

#: Health states a supervised device moves through.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
RECOVERING = "recovering"
HEALTH_STATES = (HEALTHY, DEGRADED, QUARANTINED, RECOVERING)


# -- float / RNG / record codecs -----------------------------------------------


def _enc_float(value: float) -> str:
    """Bit-exact text form of one float (NaN/inf-safe, resume-stable)."""
    return float(value).hex()


def _dec_float(token: str) -> float:
    """Inverse of :func:`_enc_float`."""
    return float.fromhex(token)


def rng_state(generator: np.random.Generator) -> Dict[str, Any]:
    """JSON-safe snapshot of a numpy ``Generator``'s bit-generator state."""
    return generator.bit_generator.state


def restore_rng(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a numpy ``Generator`` from :func:`rng_state` output."""
    generator = np.random.default_rng(0)
    try:
        generator.bit_generator.state = dict(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc
    return generator


def _enc_record(record: DecisionRecord) -> List[Any]:
    return [
        record.index,
        record.status,
        record.tries,
        _enc_float(record.latency_s),
        record.fallback,
        record.staleness,
        record.corrupted,
    ]


def _dec_record(row: Sequence[Any]) -> DecisionRecord:
    return DecisionRecord(
        index=int(row[0]),
        status=str(row[1]),
        tries=int(row[2]),
        latency_s=_dec_float(row[3]),
        fallback=bool(row[4]),
        staleness=int(row[5]),
        corrupted=bool(row[6]),
    )


_REPORT_FLOATS = ("sensor_energy_j", "aggregator_energy_j", "retry_energy_j")
_REPORT_INTS = (
    "retransmissions",
    "fallback_events",
    "deadline_misses",
    "frames_sent",
    "frames_corrupted",
    "corruptions_detected",
    "corrupted_deliveries",
    "integrity_discards",
)


def _enc_report(report: ResilienceReport) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "records": [_enc_record(r) for r in report.records]
    }
    for name in _REPORT_FLOATS:
        data[name] = _enc_float(getattr(report, name))
    for name in _REPORT_INTS:
        data[name] = int(getattr(report, name))
    return data


def _dec_report(data: Mapping[str, Any]) -> ResilienceReport:
    kwargs: Dict[str, Any] = {
        "records": [_dec_record(row) for row in data["records"]]
    }
    for name in _REPORT_FLOATS:
        kwargs[name] = _dec_float(data[name])
    for name in _REPORT_INTS:
        kwargs[name] = int(data[name])
    return ResilienceReport(**kwargs)


# -- fault signatures and mutable fault state ----------------------------------


def fault_signature(fault: Any) -> Dict[str, Any]:
    """Canonical configuration signature of one checkpointable fault model.

    Enters the checkpoint's ``config_key`` digest, so a resume against a
    campaign with different fault parameters (or order) is rejected.
    Raises :class:`~repro.errors.CheckpointError` for fault types this
    module cannot snapshot (subclassed or third-party models).
    """
    if isinstance(fault, BurstLoss) and type(fault) is BurstLoss:
        return {"type": "BurstLoss", "params": asdict(fault.params)}
    if isinstance(fault, PayloadCorruption) and type(fault) is PayloadCorruption:
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


def fault_state(fault: Any) -> Dict[str, Any]:
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


def load_fault_state(fault: Any, state: Mapping[str, Any]) -> None:
    """Restore :func:`fault_state` output into an armed fault model."""
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
    return {
        "max_retries": arq.max_retries,
        "timeout_s": float(arq.timeout_s),
        "backoff_factor": float(arq.backoff_factor),
        "jitter_fraction": float(arq.jitter_fraction),
    }


def _integrity_to_dict(integrity: Any) -> Optional[Dict[str, Any]]:
    if integrity is None:
        return None
    return {
        "max_payload_bytes": integrity.framing.max_payload_bytes,
        "crc": integrity.framing.crc,
        "version": integrity.framing.version,
        "retransmit_on_corrupt": integrity.retransmit_on_corrupt,
        "values_per_payload": integrity.values_per_payload,
    }


# -- the checkpoint store ------------------------------------------------------


def save_checkpoint(
    path: str | Path, kind: str, config_key: str, state: Dict[str, Any]
) -> Path:
    """Atomically write one digest-pinned checkpoint document.

    The file carries the schema marker, the run's ``config_key`` and a
    ``state_digest`` (SHA-256 of the canonical state JSON), so
    :func:`load_checkpoint` can reject stale, foreign or hand-edited
    checkpoints.  The write goes through a temporary file plus
    ``os.replace`` — a crash mid-save leaves the previous checkpoint
    intact instead of a torn file.
    """
    target = Path(path)
    try:
        digest = stable_digest(state)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint state is not canonical-JSON-safe: {exc}"
        ) from exc
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": kind,
        "config_key": config_key,
        "state_digest": digest,
        "state": state,
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True) + "\n")
    os.replace(tmp, target)
    return target


def load_checkpoint(
    path: str | Path, kind: str, config_key: str
) -> Dict[str, Any]:
    """Load and validate one checkpoint document, returning its state.

    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing, unparseable, of the wrong kind, written for a different run
    configuration, or fails its state digest (tampering/corruption).
    """
    target = Path(path)
    try:
        data = json.loads(target.read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{target} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{target}: not a checkpoint file "
            f"(expected schema {CHECKPOINT_SCHEMA!r})"
        )
    if data.get("kind") != kind:
        raise CheckpointError(
            f"{target}: checkpoint kind {data.get('kind')!r} != expected {kind!r}"
        )
    if data.get("config_key") != config_key:
        raise CheckpointError(
            f"{target}: checkpoint was written for a different run "
            f"configuration (config_key {data.get('config_key')} != "
            f"{config_key}); refusing to resume"
        )
    state = data.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(f"{target}: checkpoint misses its state payload")
    if stable_digest(state) != data.get("state_digest"):
        raise CheckpointError(
            f"{target}: state digest mismatch — the checkpoint was edited "
            "or corrupted"
        )
    return state


# -- the link circuit breaker --------------------------------------------------


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs of a :class:`LinkCircuitBreaker`.

    Attributes:
        failure_threshold: Consecutive exhausted-retry drops that open the
            breaker.
        probe_backoff_events: Events to wait (blocking the link) before
            the first half-open probe after opening.
        backoff_factor: Multiplicative growth of the probe wait after each
            failed probe.
        max_backoff_events: Upper bound on the probe wait.
        probe_retries: ARQ retries granted to one probe transmission
            (``0`` = single-shot probe); always capped by the campaign's
            own ARQ budget.
    """

    failure_threshold: int = 3
    probe_backoff_events: int = 8
    backoff_factor: float = 2.0
    max_backoff_events: int = 256
    probe_retries: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.probe_backoff_events < 1:
            raise ConfigurationError("probe_backoff_events must be >= 1")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.max_backoff_events < self.probe_backoff_events:
            raise ConfigurationError(
                "max_backoff_events must be >= probe_backoff_events"
            )
        if self.probe_retries < 0:
            raise ConfigurationError("probe_retries must be >= 0")


class LinkCircuitBreaker:
    """Deterministic circuit breaker over the wireless link's ARQ layer.

    States:

    - **closed** — traffic flows; ``failure_threshold`` consecutive
      exhausted-retry drops open the breaker;
    - **open** — events are blocked (the radio stays off; the decision
      layer serves the last-known-good cache or drops) until the probe
      schedule fires;
    - **half-open** — one probe transmission with a reduced retry budget;
      a delivered probe closes the breaker, a failed probe re-opens it
      with the probe wait grown by ``backoff_factor`` (capped).

    The breaker holds no RNG: given the same sequence of
    ``decide``/``record`` calls it follows the same trajectory, which is
    what keeps breaker-wrapped campaigns bit-identical across the scalar
    and fast runners and across checkpoint resumes.
    """

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self.reset()

    def reset(self) -> None:
        """Return to the initial closed state and zero the counters."""
        self._open = False
        self._probing = False
        self._failures = 0
        self._backoff = self.config.probe_backoff_events
        self._probe_at = 0
        self.blocked_events = 0
        self.probes = 0
        self.probe_successes = 0
        self.opens = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (probe in flight)."""
        if not self._open:
            return "closed"
        return "half_open" if self._probing else "open"

    def probe_arq(self, arq: ARQConfig) -> ARQConfig:
        """The reduced-budget ARQ policy of one half-open probe.

        Shares the campaign ARQ's timeout/backoff/jitter (so per-retry
        backoff waits are identical — :meth:`~repro.hw.arq.ARQConfig.
        backoff_s` does not depend on ``max_retries``) with the retry
        budget cut to ``probe_retries``.
        """
        if arq.max_retries is None:
            raise ConfigurationError(
                "a circuit breaker requires a bounded ARQConfig"
            )
        return ARQConfig(
            max_retries=min(self.config.probe_retries, arq.max_retries),
            timeout_s=arq.timeout_s,
            backoff_factor=arq.backoff_factor,
            jitter_fraction=arq.jitter_fraction,
        )

    def decide(self, event_index: int) -> str:
        """Gate one event: ``"allow"``, ``"block"`` or ``"probe"``.

        Call exactly once per non-browned-out event, in event order;
        follow every ``"allow"``/``"probe"`` with :meth:`record`.
        """
        if not self._open:
            return "allow"
        if event_index >= self._probe_at:
            self._probing = True
            self.probes += 1
            return "probe"
        self.blocked_events += 1
        return "block"

    def record(self, event_index: int, delivered: bool) -> None:
        """Fold the link-level outcome of one allowed/probed event in."""
        probing = self._probing
        self._probing = False
        if delivered:
            if probing:
                self.probe_successes += 1
            self._open = False
            self._failures = 0
            self._backoff = self.config.probe_backoff_events
            return
        if probing:
            self._backoff = min(
                int(math.ceil(self._backoff * self.config.backoff_factor)),
                self.config.max_backoff_events,
            )
            self._probe_at = event_index + self._backoff
            return
        self._failures += 1
        if self._failures >= self.config.failure_threshold:
            self._open = True
            self.opens += 1
            self._failures = 0
            self._backoff = self.config.probe_backoff_events
            self._probe_at = event_index + self._backoff

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the mutable breaker state (config pinned separately)."""
        return {
            "open": self._open,
            "probing": self._probing,
            "failures": self._failures,
            "backoff": self._backoff,
            "probe_at": self._probe_at,
            "blocked_events": self.blocked_events,
            "probes": self.probes,
            "probe_successes": self.probe_successes,
            "opens": self.opens,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._open = bool(state["open"])
        self._probing = bool(state["probing"])
        self._failures = int(state["failures"])
        self._backoff = int(state["backoff"])
        self._probe_at = int(state["probe_at"])
        self.blocked_events = int(state["blocked_events"])
        self.probes = int(state["probes"])
        self.probe_successes = int(state["probe_successes"])
        self.opens = int(state["opens"])


def wasted_radio_j(
    report: ResilienceReport,
    metrics: Any,
    fallback_metrics: Optional[Any] = None,
) -> float:
    """Radio energy (J) spent on events that produced no fresh decision.

    Sums, over every non-delivered record with at least one transmission,
    ``tries * (sensor_tx_j + sensor_rx_j + aggregator_radio_j)`` of the
    metrics active for that event (the fallback cut's when the record ran
    in fallback).  This is precisely the energy a circuit breaker can
    save: retries that bought a delivery are *not* wasted, and blocked
    events (``tries == 0``) cost nothing.
    """
    total = 0.0
    for record in report.records:
        if record.status == DELIVERED or record.tries == 0:
            continue
        active = (
            fallback_metrics
            if (record.fallback and fallback_metrics is not None)
            else metrics
        )
        total += record.tries * (
            active.sensor_tx_j + active.sensor_rx_j + active.aggregator_radio_j
        )
    return total


# -- campaign checkpointing ----------------------------------------------------


@dataclass
class CampaignResumeState:
    """Decoded mid-run state handed back to a resuming campaign runner.

    Attributes:
        cursor: Index of the first event still to simulate.
        clocks: ``(front_free, link_free, back_free)`` resource clocks.
        energies: ``(sensor_j, aggregator_j, retry_j)`` accumulators.
        counters: ``(retransmissions, fallback_events, deadline_misses)``.
        records: Decision records of the already-simulated events.
        wire: Data-plane integrity counters.
        extra: Runner-specific state (RNG snapshots, loss-stream
            remainder); consumed by the runner that wrote it.
    """

    cursor: int
    clocks: Tuple[float, float, float]
    energies: Tuple[float, float, float]
    counters: Tuple[int, int, int]
    records: List[DecisionRecord]
    wire: Dict[str, int]
    extra: Dict[str, Any] = field(default_factory=dict)


class CampaignCheckpointer:
    """Periodic crash-safe snapshots of one :meth:`FaultCampaign.run`.

    Pass one to ``FaultCampaign.run(..., checkpoint=...)`` to snapshot
    every ``every`` events, and ``resume=True`` to continue from the last
    snapshot: the resumed run's report is bit-identical to an
    uninterrupted run on the same runner.  The config key pins campaign
    seed, fault signatures, runner, ARQ, simulator, policy, cache,
    integrity and breaker configuration, so a checkpoint can never resume
    a different run.
    """

    kind = "campaign"

    def __init__(self, path: str | Path, every: int = 200) -> None:
        if every < 1:
            raise ConfigurationError("every must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.saves = 0

    def due(self, events_done: int) -> bool:
        """Whether a snapshot is due after ``events_done`` events."""
        return events_done > 0 and events_done % self.every == 0

    def config_key(
        self,
        *,
        campaign: Any,
        runner: str,
        simulator: Any,
        n_events: int,
        arq: ARQConfig,
        policy: Optional[Any],
        fallback_metrics: Optional[Any],
        cache: Optional[Any],
        integrity: Optional[Any],
        breaker: Optional[LinkCircuitBreaker],
    ) -> str:
        """Digest pinning the complete run configuration."""
        payload = {
            "campaign": {
                "seed": int(campaign.seed),
                "faults": [fault_signature(f) for f in campaign.faults],
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
        }
        return stable_digest(payload)

    def save(
        self,
        *,
        campaign: Any,
        runner: str,
        simulator: Any,
        n_events: int,
        arq: ARQConfig,
        policy: Optional[Any],
        fallback_metrics: Optional[Any],
        cache: Optional[Any],
        integrity: Optional[Any],
        breaker: Optional[LinkCircuitBreaker],
        cursor: int,
        clocks: Sequence[float],
        energies: Sequence[float],
        counters: Sequence[int],
        records: Sequence[DecisionRecord],
        wire: Mapping[str, int],
        extra: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Write one snapshot of the running campaign (atomic replace)."""
        key = self.config_key(
            campaign=campaign,
            runner=runner,
            simulator=simulator,
            n_events=n_events,
            arq=arq,
            policy=policy,
            fallback_metrics=fallback_metrics,
            cache=cache,
            integrity=integrity,
            breaker=breaker,
        )
        state = {
            "cursor": int(cursor),
            "clocks": [_enc_float(v) for v in clocks],
            "energies": [_enc_float(v) for v in energies],
            "counters": [int(v) for v in counters],
            "records": [_enc_record(r) for r in records],
            "wire": {k: int(v) for k, v in wire.items()},
            "faults": [fault_state(f) for f in campaign.faults],
            "policy": None if policy is None else policy.state_dict(),
            "cache": None if cache is None else cache.state_dict(),
            "breaker": None if breaker is None else breaker.state_dict(),
            "extra": dict(extra or {}),
        }
        path = save_checkpoint(self.path, self.kind, key, state)
        self.saves += 1
        return path

    def load(
        self,
        *,
        campaign: Any,
        runner: str,
        simulator: Any,
        n_events: int,
        arq: ARQConfig,
        policy: Optional[Any],
        fallback_metrics: Optional[Any],
        cache: Optional[Any],
        integrity: Optional[Any],
        breaker: Optional[LinkCircuitBreaker],
    ) -> CampaignResumeState:
        """Validate, restore in-place fault/policy/cache/breaker state.

        Re-arms the campaign (``campaign.reset()``), overwrites every
        stochastic fault's RNG position with the snapshot, restores the
        degradation policy, cache and breaker, and returns the decoded
        :class:`CampaignResumeState` for the runner to continue from.
        """
        key = self.config_key(
            campaign=campaign,
            runner=runner,
            simulator=simulator,
            n_events=n_events,
            arq=arq,
            policy=policy,
            fallback_metrics=fallback_metrics,
            cache=cache,
            integrity=integrity,
            breaker=breaker,
        )
        state = load_checkpoint(self.path, self.kind, key)
        campaign.reset()
        for fault, fstate in zip(campaign.faults, state["faults"]):
            load_fault_state(fault, fstate)
        if policy is not None:
            policy.load_state(state["policy"])
        if cache is not None:
            cache.load_state(state["cache"])
        if breaker is not None:
            breaker.load_state(state["breaker"])
        clocks = tuple(_dec_float(v) for v in state["clocks"])
        energies = tuple(_dec_float(v) for v in state["energies"])
        counters = tuple(int(v) for v in state["counters"])
        return CampaignResumeState(
            cursor=int(state["cursor"]),
            clocks=clocks,  # type: ignore[arg-type]
            energies=energies,  # type: ignore[arg-type]
            counters=counters,  # type: ignore[arg-type]
            records=[_dec_record(row) for row in state["records"]],
            wire={k: int(v) for k, v in state["wire"].items()},
            extra=dict(state["extra"]),
        )


# -- sweep checkpointing -------------------------------------------------------


def _encode_sweep_value(value: Any) -> Dict[str, Any]:
    """Default sweep-value encoder (reports, floats, JSON scalars)."""
    if isinstance(value, ResilienceReport):
        return {"kind": "report", "data": _enc_report(value)}
    if isinstance(value, float):
        return {"kind": "float", "data": _enc_float(value)}
    try:
        canonical_json(value)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"sweep value of type {type(value).__name__} is not "
            "checkpoint-safe; pass SweepCheckpointer(encode=..., decode=...)"
        ) from exc
    return {"kind": "json", "data": value}


def _decode_sweep_value(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`_encode_sweep_value`."""
    kind = data.get("kind")
    if kind == "report":
        return _dec_report(data["data"])
    if kind == "float":
        return _dec_float(data["data"])
    if kind == "json":
        return data["data"]
    raise CheckpointError(f"unknown sweep value kind {kind!r} in checkpoint")


class SweepCheckpointer:
    """Periodic snapshots of a :func:`~repro.sim.parallel.sweep`.

    The sweep evaluates its pending grid points in batches of ``every``
    and saves the accumulated ``point index -> value`` map after each
    batch; on ``resume=True`` the completed points are skipped and only
    the remainder is re-evaluated.  Because every point is an independent
    seeded task, the stitched result is bit-identical to an uninterrupted
    sweep.  The config key pins the function identity, the grid (names
    and value reprs) and the shared-kwarg names.

    Values are encoded with a default codec covering
    :class:`~repro.sim.faults.ResilienceReport`, floats (``float.hex``)
    and JSON scalars; pass ``encode``/``decode`` for anything else.
    """

    kind = "sweep"

    def __init__(
        self,
        path: str | Path,
        every: int = 1,
        encode: Optional[Callable[[Any], Dict[str, Any]]] = None,
        decode: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    ) -> None:
        if every < 1:
            raise ConfigurationError("every must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.encode = encode or _encode_sweep_value
        self.decode = decode or _decode_sweep_value
        self.saves = 0

    def config_key(
        self,
        *,
        func: Callable[..., Any],
        grid: Mapping[str, Sequence[Any]],
        shared: Optional[Mapping[str, Any]],
    ) -> str:
        """Digest pinning the sweep's function, grid and shared names."""
        payload = {
            "func": f"{func.__module__}.{func.__qualname__}",
            "grid": {
                name: [repr(v) for v in values] for name, values in grid.items()
            },
            "grid_order": list(grid.keys()),
            "shared": sorted(shared or {}),
        }
        return stable_digest(payload)

    def save(
        self,
        *,
        func: Callable[..., Any],
        grid: Mapping[str, Sequence[Any]],
        shared: Optional[Mapping[str, Any]],
        done: Mapping[int, Any],
    ) -> Path:
        """Write the completed-point map (atomic replace)."""
        key = self.config_key(func=func, grid=grid, shared=shared)
        state = {
            "done": {str(i): self.encode(v) for i, v in done.items()}
        }
        path = save_checkpoint(self.path, self.kind, key, state)
        self.saves += 1
        return path

    def load(
        self,
        *,
        func: Callable[..., Any],
        grid: Mapping[str, Sequence[Any]],
        shared: Optional[Mapping[str, Any]],
    ) -> Dict[int, Any]:
        """Validate and decode the completed-point map."""
        key = self.config_key(func=func, grid=grid, shared=shared)
        state = load_checkpoint(self.path, self.kind, key)
        return {int(i): self.decode(v) for i, v in state["done"].items()}


# -- chaos-search checkpointing ------------------------------------------------


_SCORE_FLOATS = (
    "unavailability",
    "silent_corruption",
    "latency_tail",
    "battery_overhead",
    "degraded_rate",
    "badness",
)


def _enc_score(score: ChaosScore) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        name: _enc_float(getattr(score, name)) for name in _SCORE_FLOATS
    }
    data["diverged"] = bool(score.diverged)
    return data


def _dec_score(data: Mapping[str, Any]) -> ChaosScore:
    kwargs = {name: _dec_float(data[name]) for name in _SCORE_FLOATS}
    return ChaosScore(diverged=bool(data["diverged"]), **kwargs)


def _enc_outcome(outcome: ChaosOutcome) -> Dict[str, Any]:
    return {
        "scenario": outcome.scenario.to_dict(),
        "score": _enc_score(outcome.score),
        "report": (
            None if outcome.report is None else _enc_report(outcome.report)
        ),
        "report_digest": outcome.report_digest,
        "generation": int(outcome.generation),
    }


def _dec_outcome(data: Mapping[str, Any]) -> ChaosOutcome:
    return ChaosOutcome(
        scenario=ChaosScenario.from_dict(data["scenario"]),
        score=_dec_score(data["score"]),
        report=(
            None if data["report"] is None else _dec_report(data["report"])
        ),
        report_digest=data["report_digest"],
        generation=int(data["generation"]),
    )


@dataclass
class ChaosResumeState:
    """Decoded mid-search state handed back to :func:`chaos_search`.

    Attributes:
        generation: Generation the search stopped inside.
        position: Index of the next scenario of that generation.
        population: The generation's full candidate population.
        outcomes: Every outcome evaluated so far, in evaluation order.
        evaluations: Campaign runs executed so far.
    """

    generation: int
    position: int
    population: List[ChaosScenario]
    outcomes: List[ChaosOutcome]
    evaluations: int


class ChaosCheckpointer:
    """Periodic snapshots of one :func:`~repro.sim.chaos.chaos_search`.

    Snapshots fire every ``every`` campaign evaluations and carry the
    strategist's RNG bit-generator state, the generation cursor, the
    candidate population and the full evaluated-outcome archive (scores
    and reports hex-float encoded), so a resumed search retraces the
    uninterrupted search exactly — same proposals, same Pareto frontier,
    same worst-case digest.
    """

    kind = "chaos"

    def __init__(self, path: str | Path, every: int = 8) -> None:
        if every < 1:
            raise ConfigurationError("every must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.saves = 0

    def due(self, evaluations: int) -> bool:
        """Whether a snapshot is due after ``evaluations`` campaign runs."""
        return evaluations > 0 and evaluations % self.every == 0

    def config_key(
        self, *, run_config: Any, search: Any, bounds: Any, judge: Any
    ) -> str:
        """Digest pinning harness, search shape, bounds and judge."""
        payload = {
            "run": run_config.to_dict(),
            "search": asdict(search),
            "bounds": asdict(bounds),
            "judge": {
                "period_s": float(judge.period_s),
                "clean_sensor_j": float(judge.clean_sensor_j),
                "weights": asdict(judge.weights),
            },
        }
        return stable_digest(payload)

    def save(
        self,
        *,
        run_config: Any,
        search: Any,
        bounds: Any,
        judge: Any,
        strategist: Any,
        generation: int,
        position: int,
        population: Sequence[ChaosScenario],
        outcomes: Sequence[ChaosOutcome],
        evaluations: int,
    ) -> Path:
        """Write one snapshot of the running search (atomic replace)."""
        key = self.config_key(
            run_config=run_config, search=search, bounds=bounds, judge=judge
        )
        state = {
            "strategist": strategist.state_dict(),
            "generation": int(generation),
            "position": int(position),
            "population": [s.to_dict() for s in population],
            "outcomes": [_enc_outcome(o) for o in outcomes],
            "evaluations": int(evaluations),
        }
        path = save_checkpoint(self.path, self.kind, key, state)
        self.saves += 1
        return path

    def load(
        self,
        *,
        run_config: Any,
        search: Any,
        bounds: Any,
        judge: Any,
        strategist: Any,
    ) -> ChaosResumeState:
        """Validate, restore the strategist RNG, return the decoded state."""
        key = self.config_key(
            run_config=run_config, search=search, bounds=bounds, judge=judge
        )
        state = load_checkpoint(self.path, self.kind, key)
        strategist.load_state(state["strategist"])
        return ChaosResumeState(
            generation=int(state["generation"]),
            position=int(state["position"]),
            population=[
                ChaosScenario.from_dict(s) for s in state["population"]
            ],
            outcomes=[_dec_outcome(o) for o in state["outcomes"]],
            evaluations=int(state["evaluations"]),
        )


# -- per-device health state machine -------------------------------------------


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds driving the per-device health state machine.

    A campaign round is classified by its availability: *ok* at or above
    ``degraded_availability``, *poor* below it, *bad* below
    ``quarantine_availability``.

    Attributes:
        degraded_availability: Round availability below which the round
            counts against the device.
        quarantine_availability: Round availability below which a single
            round quarantines the device immediately.
        quarantine_rounds: Consecutive poor rounds that quarantine the
            device.
        recovery_rounds: Unscheduled rest rounds a quarantined device sits
            out before re-entering service as recovering.
        probation_rounds: Consecutive ok rounds a recovering device must
            deliver before it counts as healthy again.
    """

    degraded_availability: float = 0.98
    quarantine_availability: float = 0.90
    quarantine_rounds: int = 2
    recovery_rounds: int = 2
    probation_rounds: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.quarantine_availability <= 1.0:
            raise ConfigurationError(
                "quarantine_availability must be in [0, 1]"
            )
        if not self.quarantine_availability <= self.degraded_availability <= 1.0:
            raise ConfigurationError(
                "degraded_availability must be in "
                "[quarantine_availability, 1]"
            )
        for name in ("quarantine_rounds", "recovery_rounds", "probation_rounds"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")


def _state_bucket() -> Dict[str, Any]:
    return {
        "rounds": 0,
        "events": 0,
        "delivered": 0,
        "degraded": 0,
        "dropped": 0,
        "sensor_j": 0.0,
    }


class DeviceHealth:
    """Health state machine of one supervised device.

    Campaign-round outcomes (:class:`~repro.sim.faults.ResilienceReport`)
    drive the device through ``healthy -> degraded -> quarantined ->
    recovering``; per-state accounting tracks how many events, drops,
    degraded serves and joules each state absorbed, so the cost of a
    sick device is visible per state rather than smeared over the fleet.
    """

    def __init__(self, name: str, policy: Optional[HealthPolicy] = None) -> None:
        self.name = str(name)
        self.policy = policy or HealthPolicy()
        self._state = HEALTHY
        self._bad_streak = 0
        self._ok_streak = 0
        self._rest = 0
        self.quarantines = 0
        self.accounting: Dict[str, Dict[str, Any]] = {
            state: _state_bucket() for state in HEALTH_STATES
        }

    @property
    def state(self) -> str:
        """Current health state (one of :data:`HEALTH_STATES`)."""
        return self._state

    @property
    def schedulable(self) -> bool:
        """Whether the device may be scheduled (not quarantined)."""
        return self._state != QUARANTINED

    def observe(self, report: ResilienceReport) -> str:
        """Fold one scheduled round's report in; returns the new state.

        Raises :class:`~repro.errors.ConfigurationError` when called on a
        quarantined device — quarantine removes the device from
        scheduling, so it cannot produce campaign rounds.
        """
        return self.observe_counts(
            events=report.n_events,
            delivered=report.n_delivered,
            degraded=report.n_degraded,
            dropped=report.n_dropped,
            sensor_j=report.sensor_energy_j,
            availability=report.availability,
        )

    def observe_counts(
        self,
        events: int,
        delivered: int,
        degraded: int,
        dropped: int,
        sensor_j: float,
        availability: float,
    ) -> str:
        """Fold one scheduled round in from raw counts; returns the state.

        The entry point of the fleet engine's scalar twin
        (:func:`~repro.sim.fleetsoa.simulate_fleet_scalar`): no per-round
        report object has to exist, the round's numbers are enough.
        Semantics are exactly :meth:`observe`'s.
        """
        if self._state == QUARANTINED:
            raise ConfigurationError(
                f"device {self.name!r} is quarantined and was not scheduled; "
                "tick() it instead"
            )
        bucket = self.accounting[self._state]
        bucket["rounds"] += 1
        bucket["events"] += events
        bucket["delivered"] += delivered
        bucket["degraded"] += degraded
        bucket["dropped"] += dropped
        bucket["sensor_j"] += sensor_j

        poor = availability < self.policy.degraded_availability
        bad = availability < self.policy.quarantine_availability

        if self._state == RECOVERING:
            if poor:
                self._quarantine()
            else:
                self._ok_streak += 1
                if self._ok_streak >= self.policy.probation_rounds:
                    self._state = HEALTHY
                    self._bad_streak = 0
            return self._state

        if not poor:
            self._state = HEALTHY
            self._bad_streak = 0
            return self._state
        self._bad_streak += 1
        if bad or self._bad_streak >= self.policy.quarantine_rounds:
            self._quarantine()
        else:
            self._state = DEGRADED
        return self._state

    def _quarantine(self) -> None:
        self._state = QUARANTINED
        self._rest = self.policy.recovery_rounds
        self._bad_streak = 0
        self._ok_streak = 0
        self.quarantines += 1

    def tick(self) -> str:
        """One unscheduled rest round of a quarantined device."""
        if self._state != QUARANTINED:
            raise ConfigurationError(
                f"device {self.name!r} is {self._state}, not quarantined"
            )
        self.accounting[QUARANTINED]["rounds"] += 1
        self._rest -= 1
        if self._rest <= 0:
            self._state = RECOVERING
            self._ok_streak = 0
        return self._state

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the mutable device state as a JSON-safe dict."""
        return {
            "state": self._state,
            "bad_streak": self._bad_streak,
            "ok_streak": self._ok_streak,
            "rest": self._rest,
            "quarantines": self.quarantines,
            "accounting": {
                state: dict(bucket)
                for state, bucket in self.accounting.items()
            },
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        if state["state"] not in HEALTH_STATES:
            raise CheckpointError(f"unknown health state {state['state']!r}")
        self._state = state["state"]
        self._bad_streak = int(state["bad_streak"])
        self._ok_streak = int(state["ok_streak"])
        self._rest = int(state["rest"])
        self.quarantines = int(state["quarantines"])
        self.accounting = {
            s: dict(bucket) for s, bucket in state["accounting"].items()
        }


class FleetSupervisor:
    """Round-based health supervision of a named device fleet.

    Each supervision round, the scheduler asks :meth:`schedulable` (or
    :meth:`filter_nodes` for TDMA/MIMO node lists) which devices may run,
    executes their campaigns, and feeds the per-device reports back
    through :meth:`observe_round` — which also ages every quarantined
    device toward recovery.  All state is deterministic and
    snapshot-able, so fleet supervision survives checkpoint/resume.
    """

    def __init__(
        self,
        names: Sequence[str],
        policy: Optional[HealthPolicy] = None,
    ) -> None:
        if not names:
            raise ConfigurationError("a fleet needs at least one device")
        if len(set(names)) != len(names):
            raise ConfigurationError("device names must be unique")
        self.policy = policy or HealthPolicy()
        self._devices: Dict[str, DeviceHealth] = {
            name: DeviceHealth(name, self.policy) for name in names
        }

    def device(self, name: str) -> DeviceHealth:
        """The :class:`DeviceHealth` of one named device."""
        try:
            return self._devices[name]
        except KeyError:
            raise ConfigurationError(f"unknown device {name!r}") from None

    def schedulable(self) -> List[str]:
        """Names of the devices currently allowed to run, fleet order."""
        return [d.name for d in self._devices.values() if d.schedulable]

    def filter_nodes(self, nodes: Sequence[Any]) -> List[Any]:
        """Drop quarantined devices from a TDMA/MIMO node list.

        Filters by each node's ``.name`` (e.g. :class:`~repro.sim.
        multinode.BSNNode`); unknown names pass through untouched so
        unsupervised infrastructure nodes keep their slots.
        """
        return [
            node
            for node in nodes
            if node.name not in self._devices
            or self._devices[node.name].schedulable
        ]

    def schedulable_mask(self, names: Sequence[str]) -> np.ndarray:
        """Boolean schedulability column for a device-name ordering.

        The fleet engine's scalar twin (:func:`~repro.sim.fleetsoa.
        simulate_fleet_scalar`) asks once per round with its fleet-order
        name column; the mask is ANDed with the battery-alive column to
        form the round's schedule.
        """
        return np.fromiter(
            (self.device(name).schedulable for name in names),
            dtype=bool,
            count=len(names),
        )

    def observe_availability_round(
        self,
        names: Sequence[str],
        scheduled: np.ndarray,
        events: int,
        delivered: np.ndarray,
        dropped: np.ndarray,
        sensor_j: np.ndarray,
    ) -> None:
        """Fold one fleet round in from its per-device columns.

        The column counterpart of :meth:`observe_round`: ``scheduled`` is
        the round's schedule mask and the remaining columns are that
        round's per-device counters in the same fleet order as ``names``.
        Scheduled devices are observed (availability =
        ``delivered / events``, fleet rounds have no degraded serves);
        every device quarantined at the start of the round is ticked one
        rest round instead — exactly :meth:`observe_round`'s semantics,
        without per-round report objects existing.
        """
        resting = [
            d for d in self._devices.values() if d.state == QUARANTINED
        ]
        for i in np.flatnonzero(np.asarray(scheduled, dtype=bool)):
            n_delivered = int(delivered[i])
            self.device(names[i]).observe_counts(
                events=int(events),
                delivered=n_delivered,
                degraded=0,
                dropped=int(dropped[i]),
                sensor_j=float(sensor_j[i]),
                availability=n_delivered / float(events),
            )
        for dev in resting:
            dev.tick()

    def observe_round(self, reports: Mapping[str, ResilienceReport]) -> None:
        """Fold one supervision round in.

        ``reports`` maps device name to that round's campaign report for
        every *scheduled* device; every device quarantined at the start
        of the round is ticked one rest round instead.
        """
        resting = [
            d for d in self._devices.values() if d.state == QUARANTINED
        ]
        for name, report in reports.items():
            self.device(name).observe(report)
        for dev in resting:
            dev.tick()

    def states(self) -> Dict[str, str]:
        """Device name -> current health state, fleet order."""
        return {name: d.state for name, d in self._devices.items()}

    def state_counts(self) -> Dict[str, int]:
        """Health-state histogram over the fleet."""
        counts = {state: 0 for state in HEALTH_STATES}
        for dev in self._devices.values():
            counts[dev.state] += 1
        return counts

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot every device's mutable state as a JSON-safe dict."""
        return {
            "devices": {
                name: dev.state_dict() for name, dev in self._devices.items()
            }
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        devices = state["devices"]
        missing = set(self._devices) - set(devices)
        if missing:
            raise CheckpointError(
                f"fleet snapshot misses devices: {sorted(missing)}"
            )
        for name, dev in self._devices.items():
            dev.load_state(devices[name])


#: ``int8`` codes of :class:`HealthColumns` ``state``: indices into
#: :data:`HEALTH_STATES`.
_HEALTHY, _DEGRADED, _QUARANTINED, _RECOVERING = range(len(HEALTH_STATES))


class HealthColumns:
    """The health state machine of a whole fleet as integer columns.

    The struct-of-arrays fleet engine (:mod:`repro.sim.fleetsoa`) steps
    every device's :class:`DeviceHealth` machine at once: ``state`` holds
    an ``int8`` code into :data:`HEALTH_STATES`, and ``bad_streak``,
    ``ok_streak``, ``rest`` and ``quarantines`` hold the counters of the
    same names, one entry per device in fleet order.  Each round's
    transitions are boolean masks computed exactly as
    :meth:`DeviceHealth.observe_counts` and :meth:`DeviceHealth.tick`
    decide them, so after every round each column entry equals the state
    a per-device :class:`DeviceHealth` fed the same rounds would hold.
    :class:`DeviceHealth` stays the oracle; the columns keep no per-state
    accounting and no checkpoint snapshot.
    """

    def __init__(self, n_devices: int, policy: Optional[HealthPolicy] = None) -> None:
        self.policy = policy or HealthPolicy()
        self.state = np.full(n_devices, _HEALTHY, dtype=np.int8)
        self.bad_streak = np.zeros(n_devices, dtype=np.int64)
        self.ok_streak = np.zeros(n_devices, dtype=np.int64)
        self.rest = np.zeros(n_devices, dtype=np.int64)
        self.quarantines = np.zeros(n_devices, dtype=np.int64)

    @property
    def schedulable(self) -> np.ndarray:
        """Boolean column: devices not quarantined."""
        return self.state != _QUARANTINED

    def observe_round(
        self, scheduled: np.ndarray, events: int, delivered: np.ndarray
    ) -> None:
        """Fold one fleet round in from its schedule and delivery columns.

        Scheduled devices are observed at availability ``delivered /
        events``; every device quarantined at the start of the round
        rests one round instead (:meth:`FleetSupervisor.
        observe_availability_round`'s semantics).  Raises
        :class:`~repro.errors.ConfigurationError` when a quarantined
        device is scheduled.
        """
        policy = self.policy
        state = self.state
        resting = state == _QUARANTINED
        if (scheduled & resting).any():
            raise ConfigurationError(
                "quarantined devices were scheduled; they only rest"
            )
        availability = delivered / float(events)
        poor = availability < policy.degraded_availability
        recovering = scheduled & (state == _RECOVERING)
        active = scheduled & ~recovering
        # Recovering: an ok round extends probation, a poor one ends it.
        probation = recovering & ~poor
        self.ok_streak += probation
        healed = (active & ~poor) | (
            probation & (self.ok_streak >= policy.probation_rounds)
        )
        # Healthy/degraded: a poor round lengthens the bad streak.
        slipping = active & poor
        self.bad_streak += slipping
        quarantine = (recovering & poor) | (
            slipping
            & (
                (availability < policy.quarantine_availability)
                | (self.bad_streak >= policy.quarantine_rounds)
            )
        )
        np.putmask(state, healed, _HEALTHY)
        np.putmask(state, slipping & ~quarantine, _DEGRADED)
        np.putmask(state, quarantine, _QUARANTINED)
        np.putmask(self.rest, quarantine, policy.recovery_rounds)
        np.putmask(self.bad_streak, healed | quarantine, 0)
        self.quarantines += quarantine
        # Devices that started the round quarantined rest one round.
        self.rest -= resting
        woken = resting & (self.rest <= 0)
        np.putmask(state, woken, _RECOVERING)
        np.putmask(self.ok_streak, quarantine | woken, 0)

    def states(self) -> List[str]:
        """Per-device health state names, fleet order."""
        return [HEALTH_STATES[code] for code in self.state.tolist()]


__all__ = [
    "CHECKPOINT_SCHEMA",
    "HEALTH_STATES",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "RECOVERING",
    "BreakerConfig",
    "CampaignCheckpointer",
    "CampaignResumeState",
    "ChaosCheckpointer",
    "ChaosResumeState",
    "DeviceHealth",
    "FleetSupervisor",
    "HealthColumns",
    "HealthPolicy",
    "LinkCircuitBreaker",
    "SweepCheckpointer",
    "fault_signature",
    "fault_state",
    "load_checkpoint",
    "load_fault_state",
    "restore_rng",
    "rng_state",
    "save_checkpoint",
    "wasted_radio_j",
]
