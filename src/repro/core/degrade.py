"""Graceful cross-end degradation under channel and energy faults.

Bounded-retry ARQ (:mod:`repro.hw.arq`) keeps per-payload delay finite by
*dropping* payloads that exhaust their retry budget — so somebody upstream
must decide what a dropped payload means for the application.  This module
provides the two policies the resilience layer composes:

- :class:`LastKnownGoodCache` — serve the most recent successfully
  delivered decision when a payload drops (a stale-but-available answer
  beats no answer for monitoring workloads), with an optional staleness
  bound after which degraded service is refused;
- :class:`GracefulDegradationPolicy` — detect a *persistent* outage
  (``outage_threshold`` consecutive drops) and fall back to the in-sensor
  extreme cut, where the whole pipeline runs locally and only the 8-bit
  result needs the link; re-enter the optimal cross-end cut only after
  ``recovery_hysteresis`` consecutive deliveries, so a flapping channel
  cannot thrash the deployment.

Both are plain deterministic state machines: the fault campaigns in
:mod:`repro.sim.faults` replay bit-for-bit under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DegradedDecision:
    """A decision served from the last-known-good cache.

    Attributes:
        value: The cached decision payload (opaque to the policy layer).
        staleness: Events elapsed since the decision was refreshed.
    """

    value: object
    staleness: int


@dataclass
class LastKnownGoodCache:
    """Serves the most recent delivered decision when a payload drops.

    Args:
        max_staleness: Refuse service once the cached decision is older
            than this many events (None = serve regardless of age).
    """

    max_staleness: Optional[int] = None
    _value: object = field(default=None, repr=False)
    _has_value: bool = field(default=False, repr=False)
    _age: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.max_staleness is not None and self.max_staleness < 1:
            raise ConfigurationError("max_staleness must be None or >= 1")

    def update(self, decision: object) -> None:
        """Record a freshly delivered decision (resets the staleness age)."""
        self._value = decision
        self._has_value = True
        self._age = 0

    def serve(self) -> Optional[DegradedDecision]:
        """Serve the cached decision for one dropped payload, or None.

        Each serve ages the cache by one event; service is refused (None)
        when nothing was ever cached or the staleness bound is exceeded.
        """
        if not self._has_value:
            return None
        self._age += 1
        if self.max_staleness is not None and self._age > self.max_staleness:
            return None
        return DegradedDecision(value=self._value, staleness=self._age)

    def reset(self) -> None:
        """Forget the cached decision (campaign re-run support)."""
        self._value = None
        self._has_value = False
        self._age = 0

    def state_dict(self) -> dict:
        """Snapshot the mutable cache state as a JSON-safe dict.

        Only meaningful when the cached value itself is JSON-safe (the
        fault campaigns cache small integers); the configuration field
        ``max_staleness`` is *not* included — checkpoints pin it
        separately so a resume cannot silently change the bound.
        """
        return {
            "value": self._value,
            "has_value": self._has_value,
            "age": self._age,
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._value = state["value"]
        self._has_value = bool(state["has_value"])
        self._age = int(state["age"])


@dataclass
class GracefulDegradationPolicy:
    """Outage detector with recovery hysteresis.

    Tracks consecutive payload drops/deliveries and decides when the
    deployment should abandon the optimal cross-end cut for the in-sensor
    extreme cut (decisions stay locally available during the outage) and
    when it is safe to come back.

    Args:
        outage_threshold: Consecutive drops that declare a persistent
            outage and enter fallback.
        recovery_hysteresis: Consecutive deliveries required to leave
            fallback and re-enter the optimal cut.
    """

    outage_threshold: int = 3
    recovery_hysteresis: int = 8
    _consecutive_drops: int = field(default=0, repr=False)
    _consecutive_deliveries: int = field(default=0, repr=False)
    _in_fallback: bool = field(default=False, repr=False)
    _transitions: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.outage_threshold < 1:
            raise ConfigurationError("outage_threshold must be >= 1")
        if self.recovery_hysteresis < 1:
            raise ConfigurationError("recovery_hysteresis must be >= 1")

    @property
    def in_fallback(self) -> bool:
        """Whether the policy currently mandates the in-sensor fallback."""
        return self._in_fallback

    @property
    def transitions(self) -> int:
        """Mode changes so far (fallback entries + recoveries)."""
        return self._transitions

    def observe(self, delivered: bool) -> bool:
        """Fold one payload outcome in; returns the (new) fallback flag."""
        if delivered:
            self._consecutive_drops = 0
            self._consecutive_deliveries += 1
            if (
                self._in_fallback
                and self._consecutive_deliveries >= self.recovery_hysteresis
            ):
                self._in_fallback = False
                self._transitions += 1
        else:
            self._consecutive_deliveries = 0
            self._consecutive_drops += 1
            if (
                not self._in_fallback
                and self._consecutive_drops >= self.outage_threshold
            ):
                self._in_fallback = True
                self._transitions += 1
        return self._in_fallback

    def reset(self) -> None:
        """Return to the initial (normal-mode) state."""
        self._consecutive_drops = 0
        self._consecutive_deliveries = 0
        self._in_fallback = False
        self._transitions = 0

    def state_dict(self) -> dict:
        """Snapshot the mutable policy state as a JSON-safe dict.

        The thresholds are configuration, not state — checkpoints pin
        them in the config key instead (see :mod:`repro.sim.checkpoint`).
        """
        return {
            "consecutive_drops": self._consecutive_drops,
            "consecutive_deliveries": self._consecutive_deliveries,
            "in_fallback": self._in_fallback,
            "transitions": self._transitions,
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._consecutive_drops = int(state["consecutive_drops"])
        self._consecutive_deliveries = int(state["consecutive_deliveries"])
        self._in_fallback = bool(state["in_fallback"])
        self._transitions = int(state["transitions"])
