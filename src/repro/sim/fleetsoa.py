"""Population-scale fleet simulation: struct-of-arrays engine + scalar twin.

The process-parallel fan-out in :mod:`repro.sim.parallel` scales the BSN
fleet across cores, but each network is still a per-object Python event
loop — fine for 16 networks, hopeless for the ROADMAP's "millions of
wearables".  This module keeps **one ndarray per state field** across
*all* devices in the fleet (battery charge, TDMA slot phase, sequence
counters, pending-retry flags, per-round availability) and advances the
whole population with a handful of vectorised operations per round, so a
single box simulates 10^4-10^6 devices per run.

Model: fleet rounds on a fixed slot grid
----------------------------------------

A *fleet* is a list of networks; each network holds a device column range
in the flat arrays.  Time advances in **rounds**.  Per round every device
owns ``events_per_round`` event windows of ``1 + max_retries`` attempt
slots each (stop-and-wait ARQ: first success in the window delivers, a
fully lost window leaves the event *pending* and the next window's fresh
event is dropped — buffer overwrite).  The Gilbert-Elliott channel of
every device advances **one step per attempt slot, every round,
regardless of scheduling** — posture and interference do not pause for a
quarantined or dead device — which makes per-round draw counts fixed and
therefore block-drawable.

Scheduling: a device transmits in a round iff it is *alive* (positive
battery charge at round start) and, when supervised, *schedulable* (not
quarantined: :class:`~repro.sim.supervise.HealthColumns` in the SoA
engine, a :class:`~repro.sim.supervise.FleetSupervisor` of per-device
:class:`~repro.sim.supervise.DeviceHealth` oracles in the twin).  Under
TDMA the scheduled devices of a network serialise: a device's slot wait
is the summed link delay of the scheduled devices holding earlier slots
this round, with the slot assignment rotating one position per round.
MIMO networks transfer concurrently (zero wait).

RNG draw-order contract
-----------------------

Each network owns an independent stream seeded by
``derive_seeds(config.seed, n_networks)[k]`` — the same
``SeedSequence``-spawn discipline as every other fan-out — so a network's
outcomes depend only on ``(seed, network index)``, never on sharding:

1. at construction, one uniform per device in device order resolves the
   initial chain state (``u < stationary_bad_fraction``, exactly
   :class:`~repro.sim.channel.GilbertElliottChannel`'s constructor draw);
2. per round, one ``rng.random(2 * n_devices_k * S)`` block, consumed
   device-major / slot-minor / (transition, loss)-interleaved — the
   C-order flattening of the scalar twin's nested
   ``for device: for slot: next_outcome()`` loop.

The scalar twin (:func:`simulate_fleet_scalar`) builds real
:class:`~repro.sim.channel.GilbertElliottChannel` objects sharing the
per-network generator (``rng=`` injection) and walks per-object Python
loops; :func:`fleet_results_identical` asserts the two paths agree
**bit-for-bit**, NaN sentinels included, which is how the perf bench and
the CI gate hold the fast path honest (the `reports_identical` discipline
from :mod:`repro.sim.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.battery import SENSOR_BATTERY
from repro.hw.framing import SEQ_MODULUS
from repro.sim.channel import (
    GilbertElliottChannel,
    GilbertElliottParams,
    ge_outcome_block,
)
from repro.sim.evaluate import PartitionMetrics
from repro.sim.multinode import PROTOCOLS, MultiNodeBSN
from repro.sim.parallel import derive_seeds
from repro.sim.supervise import FleetSupervisor, HealthColumns

#: Integer protocol codes stored in the per-network ``protocols`` column.
PROTOCOL_IDS = {"tdma": 0, "mimo": 1}


@dataclass(frozen=True)
class FleetConfig:
    """Round structure and environment shared by the whole fleet.

    Attributes:
        events_per_round: Event windows per device per round.
        max_retries: Stop-and-wait retransmissions per event window.
        channel: Gilbert-Elliott parameters of every device link.
        battery_j: Initial per-device battery charge, joules.
        seed: Master seed; per-network streams derive from it via
            :func:`~repro.sim.parallel.derive_seeds`.
    """

    events_per_round: int = 4
    max_retries: int = 2
    channel: GilbertElliottParams = GilbertElliottParams()
    battery_j: float = SENSOR_BATTERY.energy_j
    seed: int = 0

    def __post_init__(self) -> None:
        if self.events_per_round < 1:
            raise ConfigurationError("events_per_round must be >= 1")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.battery_j <= 0:
            raise ConfigurationError("battery_j must be positive")

    @property
    def slots_per_round(self) -> int:
        """Channel steps per device per round (windows x attempts)."""
        return self.events_per_round * (1 + self.max_retries)


class FleetSpec:
    """Immutable struct-of-arrays layout of one device fleet.

    Per-network columns (length ``n_networks``): ``network_sizes``,
    ``protocols`` (:data:`PROTOCOL_IDS`), ``network_seeds``.  Per-device
    columns (length ``n_devices``, device order = network order then
    within-network order): ``period_s``, ``front_delay_s``,
    ``link_delay_s``, ``compute_j``, ``radio_j``.  Derived index columns:
    ``network_id``, ``net_off``, ``within``, ``net_size_of``.

    Build via :meth:`from_networks` (one device per
    :class:`~repro.sim.multinode.BSNNode`) or :meth:`homogeneous`
    (population-scale fleets of identical devices).
    """

    def __init__(
        self,
        *,
        network_sizes: Sequence[int],
        protocols: Sequence[int],
        period_s: np.ndarray,
        front_delay_s: np.ndarray,
        link_delay_s: np.ndarray,
        compute_j: np.ndarray,
        radio_j: np.ndarray,
        config: Optional[FleetConfig] = None,
        network_names: Optional[Sequence[str]] = None,
        device_names: Optional[Sequence[str]] = None,
        network_seeds: Optional[Sequence[int]] = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.network_sizes = np.asarray(network_sizes, dtype=np.int64)
        self.protocols = np.asarray(protocols, dtype=np.int64)
        if self.network_sizes.ndim != 1 or self.protocols.shape != (
            self.network_sizes.shape[0],
        ):
            raise ConfigurationError(
                "network_sizes and protocols must be 1-D and equal length"
            )
        if self.network_sizes.size and self.network_sizes.min() < 1:
            raise ConfigurationError("every network needs at least one device")
        if not np.isin(self.protocols, list(PROTOCOL_IDS.values())).all():
            raise ConfigurationError(
                f"protocol codes must be one of {PROTOCOL_IDS}"
            )
        n_devices = int(self.network_sizes.sum())
        for name, column in (
            ("period_s", period_s),
            ("front_delay_s", front_delay_s),
            ("link_delay_s", link_delay_s),
            ("compute_j", compute_j),
            ("radio_j", radio_j),
        ):
            arr = np.asarray(column, dtype=np.float64)
            if arr.shape != (n_devices,):
                raise ConfigurationError(
                    f"{name} must have one entry per device ({n_devices})"
                )
            setattr(self, name, arr)
        if self.period_s.size and self.period_s.min() <= 0:
            raise ConfigurationError("periods must be positive")
        for name in ("front_delay_s", "link_delay_s", "compute_j", "radio_j"):
            col = getattr(self, name)
            if col.size and col.min() < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        n_networks = self.network_sizes.shape[0]
        if network_names is None:
            network_names = [f"net{k}" for k in range(n_networks)]
        if len(network_names) != n_networks:
            raise ConfigurationError("one network name per network required")
        self.network_names: List[str] = [str(n) for n in network_names]
        if device_names is not None and len(device_names) != n_devices:
            raise ConfigurationError("one device name per device required")
        self._device_names = (
            list(device_names) if device_names is not None else None
        )
        if network_seeds is None:
            seeds = derive_seeds(self.config.seed, n_networks)
        else:
            seeds = [int(s) for s in network_seeds]
            if len(seeds) != n_networks:
                raise ConfigurationError("one seed per network required")
        self.network_seeds: List[int] = seeds
        # Derived index columns.
        self.net_off = np.concatenate(
            ([0], np.cumsum(self.network_sizes)[:-1])
        ).astype(np.int64) if n_networks else np.zeros(0, dtype=np.int64)
        self.network_id = np.repeat(
            np.arange(n_networks, dtype=np.int64), self.network_sizes
        )
        self.within = (
            np.arange(n_devices, dtype=np.int64)
            - np.repeat(self.net_off, self.network_sizes)
        )
        self.net_size_of = np.repeat(self.network_sizes, self.network_sizes)

    @property
    def n_networks(self) -> int:
        """Networks in the fleet."""
        return int(self.network_sizes.shape[0])

    @property
    def n_devices(self) -> int:
        """Devices across all networks."""
        return int(self.network_id.shape[0])

    def device_names(self) -> List[str]:
        """Unique fleet-order device names (supervision identities)."""
        if self._device_names is not None:
            return list(self._device_names)
        return [
            f"{self.network_names[int(k)]}/dev{int(j)}"
            for k, j in zip(self.network_id, self.within)
        ]

    @classmethod
    def from_networks(
        cls,
        networks: Sequence[MultiNodeBSN],
        config: Optional[FleetConfig] = None,
    ) -> "FleetSpec":
        """One device per :class:`~repro.sim.multinode.BSNNode`.

        Device static columns come from each node's
        :class:`~repro.sim.evaluate.PartitionMetrics` (``radio_j`` =
        tx + rx energy per attempt); device names are
        ``net{k}/{node.name}`` so supervision identities stay unique
        across networks.
        """
        sizes: List[int] = []
        protocols: List[int] = []
        period: List[float] = []
        front: List[float] = []
        link: List[float] = []
        compute: List[float] = []
        radio: List[float] = []
        names: List[str] = []
        for k, bsn in enumerate(networks):
            sizes.append(len(bsn.nodes))
            protocols.append(PROTOCOL_IDS[bsn.protocol])
            for node in bsn.nodes:
                m = node.metrics
                period.append(node.period_s)
                front.append(m.delay_front_s)
                link.append(m.delay_link_s)
                compute.append(m.sensor_compute_j)
                radio.append(m.sensor_tx_j + m.sensor_rx_j)
                names.append(f"net{k}/{node.name}")
        return cls(
            network_sizes=sizes,
            protocols=protocols,
            period_s=np.asarray(period),
            front_delay_s=np.asarray(front),
            link_delay_s=np.asarray(link),
            compute_j=np.asarray(compute),
            radio_j=np.asarray(radio),
            config=config,
            device_names=names,
        )

    @classmethod
    def homogeneous(
        cls,
        n_networks: int,
        devices_per_network: int,
        metrics: PartitionMetrics,
        period_s: float = 0.25,
        protocol: str = "mixed",
        config: Optional[FleetConfig] = None,
    ) -> "FleetSpec":
        """A population-scale fleet of identical devices.

        ``protocol`` is ``"tdma"``, ``"mimo"`` or ``"mixed"`` (alternating
        by network index, the perf-bench fleet shape).
        """
        if n_networks < 0 or devices_per_network < 1:
            raise ConfigurationError(
                "need n_networks >= 0 and devices_per_network >= 1"
            )
        if protocol == "mixed":
            codes = [k % 2 for k in range(n_networks)]
        elif protocol in PROTOCOLS:
            codes = [PROTOCOL_IDS[protocol]] * n_networks
        else:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; available: "
                f"{PROTOCOLS + ('mixed',)}"
            )
        n_devices = n_networks * devices_per_network
        return cls(
            network_sizes=[devices_per_network] * n_networks,
            protocols=codes,
            period_s=np.full(n_devices, float(period_s)),
            front_delay_s=np.full(n_devices, metrics.delay_front_s),
            link_delay_s=np.full(n_devices, metrics.delay_link_s),
            compute_j=np.full(n_devices, metrics.sensor_compute_j),
            radio_j=np.full(
                n_devices, metrics.sensor_tx_j + metrics.sensor_rx_j
            ),
            config=config,
        )

    def slice_networks(self, lo: int, hi: int) -> "FleetSpec":
        """The sub-fleet of networks ``[lo, hi)``, streams preserved.

        The slice carries the parent's per-network seeds and names, so
        simulating a slice reproduces exactly the parent fleet's columns
        for those networks — the property the sharded fan-out in
        :func:`repro.sim.parallel.fleet_soa_rounds` relies on.
        """
        if not 0 <= lo <= hi <= self.n_networks:
            raise ConfigurationError(
                f"network slice [{lo}, {hi}) out of range "
                f"[0, {self.n_networks})"
            )
        dlo = int(self.net_off[lo]) if lo < self.n_networks else self.n_devices
        dhi = (
            int(self.net_off[hi - 1] + self.network_sizes[hi - 1])
            if hi > lo
            else dlo
        )
        return FleetSpec(
            network_sizes=self.network_sizes[lo:hi],
            protocols=self.protocols[lo:hi],
            period_s=self.period_s[dlo:dhi],
            front_delay_s=self.front_delay_s[dlo:dhi],
            link_delay_s=self.link_delay_s[dlo:dhi],
            compute_j=self.compute_j[dlo:dhi],
            radio_j=self.radio_j[dlo:dhi],
            config=self.config,
            network_names=self.network_names[lo:hi],
            device_names=(
                self._device_names[dlo:dhi]
                if self._device_names is not None
                else None
            ),
            network_seeds=self.network_seeds[lo:hi],
        )


@dataclass
class FleetResult:
    """Struct-of-arrays outcome of one fleet simulation.

    All per-device arrays are in fleet device order; ``availability`` is
    ``(n_rounds, n_devices)`` with NaN marking rounds the device was not
    scheduled (dead or quarantined) — the NaN-sentinel discipline of
    dropped-event latencies in :mod:`repro.sim.faults`.
    """

    n_rounds: int
    availability: np.ndarray
    offered: np.ndarray
    delivered: np.ndarray
    dropped: np.ndarray
    attempts: np.ndarray
    latency_sum_s: np.ndarray
    latency_events: np.ndarray
    energy_j: np.ndarray
    charge_j: np.ndarray
    seq: np.ndarray
    slot: np.ndarray
    pending: np.ndarray
    chain_bad: np.ndarray
    health: Optional[List[str]] = None
    quarantines: Optional[np.ndarray] = None

    @property
    def n_devices(self) -> int:
        """Devices covered by this result."""
        return int(self.offered.shape[0])

    @property
    def mean_latency_s(self) -> np.ndarray:
        """Per-device mean delivered-event latency (NaN: no deliveries)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.latency_events > 0,
                self.latency_sum_s / self.latency_events,
                np.nan,
            )

    @property
    def fleet_availability(self) -> float:
        """Delivered fraction of all offered events across the fleet."""
        offered = int(self.offered.sum())
        if offered == 0:
            return 1.0
        return float(self.delivered.sum() / offered)

    @property
    def alive(self) -> np.ndarray:
        """Devices with battery charge remaining at the end of the run."""
        return self.charge_j > 0.0


#: (field name, NaN-aware float comparison) pairs checked for identity.
_RESULT_FLOAT_FIELDS = (
    "availability",
    "latency_sum_s",
    "energy_j",
    "charge_j",
)
_RESULT_INT_FIELDS = (
    "offered",
    "delivered",
    "dropped",
    "attempts",
    "latency_events",
    "seq",
    "slot",
)
_RESULT_BOOL_FIELDS = ("pending", "chain_bad")


def fleet_results_identical(a: FleetResult, b: FleetResult) -> bool:
    """Bit-identity of two fleet results, NaN-aware.

    Float columns compare with ``np.array_equal(..., equal_nan=True)``
    (NaN sentinels mark unscheduled rounds and zero-delivery latencies);
    integer/bool columns and final health states compare exactly.
    """
    if a.n_rounds != b.n_rounds or a.n_devices != b.n_devices:
        return False
    for name in _RESULT_FLOAT_FIELDS:
        if not np.array_equal(
            getattr(a, name), getattr(b, name), equal_nan=True
        ):
            return False
    for name in _RESULT_INT_FIELDS + _RESULT_BOOL_FIELDS:
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    if (a.health is None) != (b.health is None) or a.health != b.health:
        return False
    if (a.quarantines is None) != (b.quarantines is None):
        return False
    if a.quarantines is not None and not np.array_equal(
        a.quarantines, b.quarantines
    ):
        return False
    return True


def concat_fleet_results(parts: Sequence[FleetResult]) -> FleetResult:
    """Stitch per-shard results back into fleet device order.

    Every per-network column is independent, so concatenating contiguous
    network-range shards reproduces the unsharded result bit-for-bit.
    """
    if not parts:
        raise ConfigurationError("need at least one result to concatenate")
    n_rounds = parts[0].n_rounds
    if any(p.n_rounds != n_rounds for p in parts):
        raise ConfigurationError("shards disagree on n_rounds")
    kwargs: Dict[str, Any] = {"n_rounds": n_rounds}
    kwargs["availability"] = np.concatenate(
        [p.availability for p in parts], axis=1
    )
    for name in (
        _RESULT_FLOAT_FIELDS[1:] + _RESULT_INT_FIELDS + _RESULT_BOOL_FIELDS
    ):
        kwargs[name] = np.concatenate([getattr(p, name) for p in parts])
    healths = [p.health for p in parts]
    if all(h is not None for h in healths):
        kwargs["health"] = [s for h in healths for s in h]  # type: ignore[union-attr]
        kwargs["quarantines"] = np.concatenate(
            [p.quarantines for p in parts]  # type: ignore[misc]
        )
    elif any(h is not None for h in healths):
        raise ConfigurationError("mixed supervised/unsupervised shards")
    return FleetResult(**kwargs)


def _check_rounds(n_rounds: int) -> None:
    if n_rounds < 1:
        raise ConfigurationError("n_rounds must be >= 1")


def _make_supervisor(spec: FleetSpec, policy: Optional[Any]) -> Optional[Any]:
    """The twin's per-run :class:`FleetSupervisor`, or None when unsupervised."""
    if policy is None or spec.n_devices == 0:
        return None
    return FleetSupervisor(spec.device_names(), policy)


def simulate_fleet_soa(
    spec: FleetSpec,
    n_rounds: int,
    policy: Optional[Any] = None,
) -> FleetResult:
    """Vectorised struct-of-arrays simulation of the whole fleet.

    Per round: one uniform block per network resolves every device's
    channel chain via :func:`~repro.sim.channel.ge_outcome_block` (a 2-D
    matrix, one row per device), TDMA waits come from an exclusive
    running sum in slot order per network, and the event windows update
    every state column with flat array operations — no per-device Python.

    Args:
        spec: The fleet layout.
        n_rounds: Supervision rounds to simulate.
        policy: Optional :class:`~repro.sim.supervise.HealthPolicy`; when
            given, a per-run :class:`~repro.sim.supervise.HealthColumns`
            machine reads each round's schedule and delivery columns and
            quarantined devices drop out of scheduling while their
            channels keep evolving.

    Returns:
        A :class:`FleetResult`, bit-identical to
        :func:`simulate_fleet_scalar` on the same spec.
    """
    _check_rounds(n_rounds)
    cfg = spec.config
    params = cfg.channel
    n_dev = spec.n_devices
    n_net = spec.n_networks
    E = cfg.events_per_round
    attempts_per_event = 1 + cfg.max_retries
    S = cfg.slots_per_round
    rngs = [np.random.default_rng(s) for s in spec.network_seeds]
    sizes = spec.network_sizes
    offs = spec.net_off
    tdma_net = spec.protocols == PROTOCOL_IDS["tdma"]
    tdma_dev = np.repeat(tdma_net, sizes)
    # Rectangular fleets (every network the same size) share one slot
    # rotation per round, so the TDMA wait prefix sums vectorise across
    # all networks as a roll + one 2-D cumsum; ragged fleets fall back to
    # a per-network scan.
    rect_size = int(sizes[0]) if n_net and (sizes == sizes[0]).all() else 0

    chain_bad = np.zeros(n_dev, dtype=bool)
    for k in range(n_net):
        lo, hi = int(offs[k]), int(offs[k] + sizes[k])
        chain_bad[lo:hi] = (
            rngs[k].random(int(sizes[k])) < params.stationary_bad_fraction
        )

    charge = np.full(n_dev, float(cfg.battery_j))
    seq = np.zeros(n_dev, dtype=np.int64)
    slot = spec.within.copy()
    pending = np.zeros(n_dev, dtype=bool)
    offered = np.zeros(n_dev, dtype=np.int64)
    delivered = np.zeros(n_dev, dtype=np.int64)
    dropped = np.zeros(n_dev, dtype=np.int64)
    attempts = np.zeros(n_dev, dtype=np.int64)
    latency_sum = np.zeros(n_dev)
    latency_events = np.zeros(n_dev, dtype=np.int64)
    energy = np.zeros(n_dev)
    availability = np.full((n_rounds, n_dev), np.nan)

    health = HealthColumns(n_dev, policy) if policy is not None and n_dev else None

    draws = np.empty((n_dev, S, 2))
    bounds = [
        (int(offs[k]), int(offs[k] + sizes[k])) for k in range(n_net)
    ]
    for r in range(n_rounds):
        alive = charge > 0.0
        sched = alive & health.schedulable if health is not None else alive
        for (lo, hi), rng in zip(bounds, rngs):
            rng.random(out=draws[lo:hi])
        # TDMA slot wait: exclusive running sum of scheduled link delays
        # in slot order — device at slot 0 waits 0, slot s waits the
        # sequential sum over slots [0, s), the order the scalar twin
        # accumulates in, so the floats match bit-for-bit.
        contrib = np.where(sched, spec.link_delay_s, 0.0)
        if rect_size > 1:
            rho = r % rect_size
            c_slot = np.roll(contrib.reshape(n_net, rect_size), rho, axis=1)
            cs = np.cumsum(c_slot, axis=1)
            w_slot = np.concatenate(
                (np.zeros((n_net, 1)), cs[:, :-1]), axis=1
            )
            wait = np.roll(w_slot, -rho, axis=1).reshape(-1)
            wait = np.where(tdma_dev, wait, 0.0)
        else:
            wait = np.zeros(n_dev)
            for k, (lo, hi) in enumerate(bounds):
                size = hi - lo
                if not tdma_net[k] or size <= 1:
                    continue
                sl = slot[lo:hi]
                by_slot = np.empty(size, dtype=np.int64)
                by_slot[sl] = np.arange(size)
                c = contrib[lo:hi][by_slot]
                cs = np.cumsum(c)
                w_slot = np.concatenate(([0.0], cs[:-1]))
                wait[lo:hi] = w_slot[sl]
        if n_dev:
            loss, chain_bad = ge_outcome_block(
                chain_bad, draws[..., 0], draws[..., 1], params
            )
        else:
            loss = np.zeros((0, S), dtype=bool)
        delivered_round = np.zeros(n_dev, dtype=np.int64)
        for w in range(E):
            window = loss[:, w * attempts_per_event : (w + 1) * attempts_per_event]
            succ = ~window
            any_succ = succ.any(axis=1)
            tries = np.where(
                any_succ, succ.argmax(axis=1) + 1, attempts_per_event
            )
            tries = np.where(sched, tries, 0)
            deliver = sched & any_succ
            drop = sched & pending
            offered += sched
            delivered += deliver
            dropped += drop
            attempts += tries
            seq = (seq + tries) % SEQ_MODULUS
            e = np.where(sched, spec.compute_j + tries * spec.radio_j, 0.0)
            energy += e
            charge = charge - e
            lat = spec.front_delay_s + wait + tries * spec.link_delay_s
            latency_sum += np.where(deliver, lat, 0.0)
            latency_events += deliver
            pending = np.where(sched, ~any_succ, pending)
            delivered_round += deliver
        availability[r, sched] = delivered_round[sched] / float(E)
        if health is not None:
            health.observe_round(sched, E, delivered_round)
        slot = (slot + 1) % spec.net_size_of

    return FleetResult(
        n_rounds=n_rounds,
        availability=availability,
        offered=offered,
        delivered=delivered,
        dropped=dropped,
        attempts=attempts,
        latency_sum_s=latency_sum,
        latency_events=latency_events,
        energy_j=energy,
        charge_j=charge,
        seq=seq,
        slot=slot,
        pending=pending,
        chain_bad=chain_bad,
        health=health.states() if health is not None else None,
        quarantines=health.quarantines if health is not None else None,
    )


def simulate_fleet_scalar(
    spec: FleetSpec,
    n_rounds: int,
    policy: Optional[Any] = None,
) -> FleetResult:
    """The scalar twin: per-object Python loops, one device at a time.

    Channels are real :class:`~repro.sim.channel.GilbertElliottChannel`
    objects sharing each network's generator (constructed in device
    order, stepped one :meth:`~repro.sim.channel.GilbertElliottChannel.
    next_outcome` per attempt slot), so the uniform stream is consumed in
    exactly the SoA engine's block order and the outcome — every counter,
    every float — is bit-identical.  This is the reference the perf bench
    times against and the equivalence tests pin.
    """
    _check_rounds(n_rounds)
    cfg = spec.config
    n_dev = spec.n_devices
    n_net = spec.n_networks
    E = cfg.events_per_round
    attempts_per_event = 1 + cfg.max_retries
    S = cfg.slots_per_round
    rngs = [np.random.default_rng(s) for s in spec.network_seeds]
    sizes = spec.network_sizes
    offs = spec.net_off

    channels: List[GilbertElliottChannel] = []
    for k in range(n_net):
        for _ in range(int(sizes[k])):
            channels.append(GilbertElliottChannel(cfg.channel, rng=rngs[k]))

    charge = [float(cfg.battery_j)] * n_dev
    seq = [0] * n_dev
    slot = [int(v) for v in spec.within]
    pending = [False] * n_dev
    offered = [0] * n_dev
    delivered = [0] * n_dev
    dropped = [0] * n_dev
    attempts = [0] * n_dev
    latency_sum = [0.0] * n_dev
    latency_events = [0] * n_dev
    energy = [0.0] * n_dev
    availability = np.full((n_rounds, n_dev), np.nan)

    supervisor = _make_supervisor(spec, policy)
    names = spec.device_names() if supervisor is not None else []

    for r in range(n_rounds):
        if supervisor is not None:
            mask = supervisor.schedulable_mask(names)
            sched = [charge[d] > 0.0 and bool(mask[d]) for d in range(n_dev)]
        else:
            sched = [charge[d] > 0.0 for d in range(n_dev)]
        delivered_round = [0] * n_dev
        dropped_round = [0] * n_dev
        energy_round = [0.0] * n_dev
        for k in range(n_net):
            lo, hi = int(offs[k]), int(offs[k] + sizes[k])
            # Channel steps for every device, scheduled or not: the
            # environment does not pause for a quarantined device.
            outcomes = [
                [channels[d].next_outcome() for _ in range(S)]
                for d in range(lo, hi)
            ]
            # Exclusive running sum of scheduled link delays in slot order.
            wait = [0.0] * (hi - lo)
            if spec.protocols[k] == PROTOCOL_IDS["tdma"]:
                order = sorted(range(lo, hi), key=lambda d: slot[d])
                acc = 0.0
                for d in order:
                    wait[d - lo] = acc
                    acc = acc + (
                        spec.link_delay_s[d] if sched[d] else 0.0
                    )
            for d in range(lo, hi):
                lost = outcomes[d - lo]
                for w in range(E):
                    window = lost[
                        w * attempts_per_event : (w + 1) * attempts_per_event
                    ]
                    any_succ = not all(window)
                    if any_succ:
                        tries = window.index(False) + 1
                    else:
                        tries = attempts_per_event
                    if not sched[d]:
                        continue
                    offered[d] += 1
                    if pending[d]:
                        dropped[d] += 1
                        dropped_round[d] += 1
                    attempts[d] += tries
                    seq[d] = (seq[d] + tries) % SEQ_MODULUS
                    e = spec.compute_j[d] + tries * spec.radio_j[d]
                    energy[d] += e
                    energy_round[d] += e
                    charge[d] = charge[d] - e
                    if any_succ:
                        delivered[d] += 1
                        delivered_round[d] += 1
                        latency_sum[d] += (
                            spec.front_delay_s[d]
                            + wait[d - lo]
                            + tries * spec.link_delay_s[d]
                        )
                        latency_events[d] += 1
                    pending[d] = not any_succ
                if sched[d]:
                    availability[r, d] = delivered_round[d] / float(E)
        if supervisor is not None:
            supervisor.observe_availability_round(
                names,
                np.asarray(sched, dtype=bool),
                events=E,
                delivered=np.asarray(delivered_round, dtype=np.int64),
                dropped=np.asarray(dropped_round, dtype=np.int64),
                sensor_j=np.asarray(energy_round),
            )
        for d in range(n_dev):
            slot[d] = (slot[d] + 1) % int(spec.net_size_of[d])

    health: Optional[List[str]] = None
    quarantines: Optional[np.ndarray] = None
    if supervisor is not None:
        states = supervisor.states()
        health = [states[name] for name in names]
        quarantines = np.asarray(
            [supervisor.device(name).quarantines for name in names],
            dtype=np.int64,
        )
    return FleetResult(
        n_rounds=n_rounds,
        availability=availability,
        offered=np.asarray(offered, dtype=np.int64),
        delivered=np.asarray(delivered, dtype=np.int64),
        dropped=np.asarray(dropped, dtype=np.int64),
        attempts=np.asarray(attempts, dtype=np.int64),
        latency_sum_s=np.asarray(latency_sum),
        latency_events=np.asarray(latency_events, dtype=np.int64),
        energy_j=np.asarray(energy),
        charge_j=np.asarray(charge),
        seq=np.asarray(seq, dtype=np.int64),
        slot=np.asarray(slot, dtype=np.int64),
        pending=np.asarray(pending, dtype=bool),
        chain_bad=np.asarray(
            [c.in_bad_state for c in channels], dtype=bool
        ),
        health=health,
        quarantines=quarantines,
    )


__all__ = [
    "PROTOCOL_IDS",
    "FleetConfig",
    "FleetResult",
    "FleetSpec",
    "concat_fleet_results",
    "fleet_results_identical",
    "simulate_fleet_scalar",
    "simulate_fleet_soa",
]
