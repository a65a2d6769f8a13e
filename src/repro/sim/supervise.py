"""Fleet supervision: health states and link circuit breakers.

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
  deployment onto the in-sensor fallback cut).

Crash-safe checkpoint/resume of campaigns and chaos searches lives in
:mod:`repro.sim.checkpoint`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.hw.arq import ARQConfig
from repro.sim.faults import DELIVERED, ResilienceReport

#: Health states a supervised device moves through.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
RECOVERING = "recovering"
HEALTH_STATES = (HEALTHY, DEGRADED, QUARANTINED, RECOVERING)


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
    what keeps breaker-wrapped campaigns bit-identical across the live
    and block fault sources and across checkpoint resumes.
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
    "HEALTH_STATES",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "RECOVERING",
    "BreakerConfig",
    "DeviceHealth",
    "FleetSupervisor",
    "HealthColumns",
    "HealthPolicy",
    "LinkCircuitBreaker",
    "wasted_radio_j",
]
