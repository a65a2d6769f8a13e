"""Static per-event evaluation of a cross-end partition.

Given a functional-cell topology, a set of in-sensor cells and the hardware
models, compute exactly what the paper's energy and delay models prescribe:

- **sensor energy** (Eq. 1-3): in-sensor computation energy, transmission
  energy of every port whose data must leave the sensor (paid once per
  port — the "grouped" rule), and reception energy for every in-sensor
  consumer of aggregator-produced data;
- **delay** (Section 5.3): front-end critical path of the in-sensor
  dataflow (cells are asynchronous units running concurrently), link
  serialisation of all crossing payloads, and the aggregator CPU time of
  the in-aggregator cells (software executes sequentially);
- **aggregator overhead** (Section 5.6): CPU energy of the software cells,
  radio energy for its side of the link, and listen-window energy.

This evaluator is the single source of truth for partition quality.  The
integration tests assert that the s-t graph's cut capacity equals the
sensor energy computed here, which is the correctness condition for the
whole Automatic XPro Generator.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Set, Tuple

from repro.cells.cell import SOURCE_CELL, PortRef
from repro.cells.topology import CellTopology
from repro.errors import ConfigurationError
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import EnergyLibrary
from repro.hw.wireless import WirelessLink


@dataclass(frozen=True)
class PartitionMetrics:
    """Per-event energy/delay figures of one partition.

    All energies in joules, all times in seconds.

    Attributes:
        in_sensor: The evaluated in-sensor cell set.
        sensor_compute_j: Eq. 2 computation energy on the sensor.
        sensor_tx_j: Transmission part of Eq. 3.
        sensor_rx_j: Reception part of Eq. 3.
        delay_front_s: Critical-path time of the in-sensor dataflow.
        delay_link_s: Serialisation time of all crossing payloads.
        delay_back_s: Aggregator CPU time of the in-aggregator cells.
        aggregator_cpu_j: CPU energy of in-aggregator software cells.
        aggregator_radio_j: Aggregator-side radio energy (Rx of uplink
            payloads, Tx of downlink payloads, listen windows).
        crossing_bits_up: On-air bits sensor -> aggregator per event.
        crossing_bits_down: On-air bits aggregator -> sensor per event.
    """

    in_sensor: FrozenSet[str]
    sensor_compute_j: float
    sensor_tx_j: float
    sensor_rx_j: float
    delay_front_s: float
    delay_link_s: float
    delay_back_s: float
    aggregator_cpu_j: float
    aggregator_radio_j: float
    crossing_bits_up: int
    crossing_bits_down: int

    @property
    def sensor_total_j(self) -> float:
        """Total sensor-node energy per event (the min-cut objective)."""
        return self.sensor_compute_j + self.sensor_tx_j + self.sensor_rx_j

    @property
    def sensor_wireless_j(self) -> float:
        """Eq. 3: total sensor radio energy per event."""
        return self.sensor_tx_j + self.sensor_rx_j

    @property
    def delay_total_s(self) -> float:
        """End-to-end per-event processing delay."""
        return self.delay_front_s + self.delay_link_s + self.delay_back_s

    @property
    def aggregator_total_j(self) -> float:
        """Total aggregator-side energy per event."""
        return self.aggregator_cpu_j + self.aggregator_radio_j


def _crossing_ports(
    topology: CellTopology, in_sensor: FrozenSet[str]
) -> Tuple[List[PortRef], List[Tuple[PortRef, str]]]:
    """Ports crossing the cut.

    Returns:
        ``(uplink_ports, downlink_pairs)``: ports transmitted once from
        sensor to aggregator, and (port, consumer) pairs received by
        in-sensor consumers from aggregator-side producers.
    """
    consumers_map = topology.consumers_by_port()
    uplink: List[PortRef] = []
    downlink: List[Tuple[PortRef, str]] = []
    result_ref = topology.result
    for ref, _port in topology.producer_ports():
        consumers = consumers_map.get(ref, [])
        producer_in_sensor = ref.cell == SOURCE_CELL or ref.cell in in_sensor
        if producer_in_sensor:
            needs_uplink = any(c not in in_sensor for c in consumers)
            if ref == result_ref:
                needs_uplink = True  # the result must always reach the back-end
            if needs_uplink:
                uplink.append(ref)
        else:
            for consumer in consumers:
                if consumer in in_sensor:
                    downlink.append((ref, consumer))
    return uplink, downlink


def _front_critical_path_s(
    topology: CellTopology, in_sensor: FrozenSet[str], energy_lib: EnergyLibrary
) -> float:
    """Longest path (in seconds) through the in-sensor dataflow subgraph."""
    finish: Dict[str, float] = {}
    for name in topology.cell_names:  # topological order
        if name not in in_sensor:
            continue
        cell = topology.cell(name)
        cost = energy_lib.cell_cost(cell.op_counts, cell.mode, cell.parallel_width)
        start = 0.0
        for pred in topology.predecessors(name):
            if pred in in_sensor:
                start = max(start, finish.get(pred, 0.0))
        finish[name] = start + energy_lib.seconds(cost.cycles)
    return max(finish.values()) if finish else 0.0


def evaluate_partition(
    topology: CellTopology,
    in_sensor: FrozenSet[str] | Set[str],
    energy_lib: EnergyLibrary,
    link: WirelessLink,
    cpu: AggregatorCPU,
) -> PartitionMetrics:
    """Evaluate one partition under the given hardware models.

    Args:
        topology: The functional-cell dataflow graph.
        in_sensor: Names of cells placed on the sensor node; all remaining
            cells run as software on the aggregator.
        energy_lib: In-sensor (ASIC) energy model.
        link: Wireless transceiver model.
        cpu: Aggregator CPU model.

    Returns:
        The full :class:`PartitionMetrics` for one event.
    """
    in_sensor = frozenset(in_sensor)
    unknown = in_sensor - set(topology.cells)
    if unknown:
        raise ConfigurationError(f"unknown cells in partition: {sorted(unknown)}")

    # -- computation ---------------------------------------------------------
    sensor_compute = 0.0
    aggregator_cpu_energy = 0.0
    aggregator_cpu_time = 0.0
    for name, cell in topology.cells.items():
        if name in in_sensor:
            cost = energy_lib.cell_cost(cell.op_counts, cell.mode, cell.parallel_width)
            sensor_compute += cost.energy_j
        else:
            aggregator_cpu_energy += cpu.compute_energy(cell.op_counts)
            aggregator_cpu_time += cpu.compute_time(cell.op_counts)

    # -- communication ---------------------------------------------------------
    uplink, downlink = _crossing_ports(topology, in_sensor)
    sensor_tx = 0.0
    sensor_rx = 0.0
    aggregator_radio = 0.0
    link_delay = 0.0
    bits_up = 0
    bits_down = 0
    for ref in uplink:
        port = topology.port_of(ref)
        sensor_tx += link.tx_energy(port.n_values, port.bits_per_value)
        aggregator_radio += link.rx_energy(port.n_values, port.bits_per_value)
        transfer = link.transfer_delay(port.n_values, port.bits_per_value)
        link_delay += transfer
        aggregator_radio += cpu.listen_energy(transfer)
        bits_up += link.payload_bits(port.n_values, port.bits_per_value)
    for ref, _consumer in downlink:
        port = topology.port_of(ref)
        sensor_rx += link.rx_energy(port.n_values, port.bits_per_value)
        aggregator_radio += link.tx_energy(port.n_values, port.bits_per_value)
        link_delay += link.transfer_delay(port.n_values, port.bits_per_value)
        bits_down += link.payload_bits(port.n_values, port.bits_per_value)

    return PartitionMetrics(
        in_sensor=in_sensor,
        sensor_compute_j=sensor_compute,
        sensor_tx_j=sensor_tx,
        sensor_rx_j=sensor_rx,
        delay_front_s=_front_critical_path_s(topology, in_sensor, energy_lib),
        delay_link_s=link_delay,
        delay_back_s=aggregator_cpu_time,
        aggregator_cpu_j=aggregator_cpu_energy,
        aggregator_radio_j=aggregator_radio,
        crossing_bits_up=bits_up,
        crossing_bits_down=bits_down,
    )


def metrics_identical(a: PartitionMetrics, b: PartitionMetrics) -> bool:
    """Bit-exact equality of two metrics records.

    Float fields are compared by ``repr`` (round-trip exact, and unlike
    ``==`` it treats two NaNs as equal); the ``in_sensor`` sets by set
    equality, since frozenset *iteration order* depends on insertion
    history and is not part of the value.
    """
    if a.in_sensor != b.in_sensor:
        return False
    return all(
        repr(getattr(a, name)) == repr(getattr(b, name))
        for name in a.__dataclass_fields__
        if name != "in_sensor"
    )



_METRIC_FLOATS = (
    "sensor_compute_j",
    "sensor_tx_j",
    "sensor_rx_j",
    "delay_front_s",
    "delay_link_s",
    "delay_back_s",
    "aggregator_cpu_j",
    "aggregator_radio_j",
)


def _metrics_to_dict(metrics: PartitionMetrics) -> Dict[str, Any]:
    """JSON-safe form of one :class:`PartitionMetrics` (floats via repr)."""
    data: Dict[str, Any] = {"in_sensor": sorted(metrics.in_sensor)}
    for name in _METRIC_FLOATS:
        data[name] = float(getattr(metrics, name))
    data["crossing_bits_up"] = int(metrics.crossing_bits_up)
    data["crossing_bits_down"] = int(metrics.crossing_bits_down)
    return data


def _metrics_from_dict(data: Dict[str, Any]) -> PartitionMetrics:
    return PartitionMetrics(
        in_sensor=frozenset(data["in_sensor"]),
        crossing_bits_up=int(data["crossing_bits_up"]),
        crossing_bits_down=int(data["crossing_bits_down"]),
        **{name: float(data[name]) for name in _METRIC_FLOATS},
    )

class PartitionEvaluationCache:
    """Bounded LRU memo for pure partition evaluations.

    :func:`evaluate_partition` is deterministic in ``(topology, in_sensor,
    energy_lib, link, cpu)``, and callers like the Automatic XPro Generator
    hold the hardware context fixed while probing many partitions — so a
    per-context memo keyed on the ``in_sensor`` frozenset alone is sound.
    The *owner* is responsible for calling :meth:`clear` whenever its
    context (topology or any hardware model) changes; the cache itself
    cannot see those objects.

    A ``maxsize`` of 0 disables caching (every lookup recomputes); the
    default bound comfortably covers one Lagrangian search (~50 distinct
    cuts) plus a sweep's worth of neighbouring contexts' repeats.

    Attributes:
        maxsize: Maximum number of retained entries (0 = disabled).
        hits: Lookups served from the cache.
        misses: Lookups that had to compute.
        evictions: Entries dropped to respect ``maxsize``.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 0:
            raise ConfigurationError("cache maxsize must be >= 0")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[FrozenSet[str], PartitionMetrics]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(
        self,
        in_sensor: FrozenSet[str],
        compute: Callable[[FrozenSet[str]], PartitionMetrics],
    ) -> PartitionMetrics:
        """Return the memoized metrics for ``in_sensor``, computing on miss."""
        if self.maxsize == 0:
            self.misses += 1
            return compute(in_sensor)
        cached = self._entries.get(in_sensor)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(in_sensor)
            return cached
        self.misses += 1
        metrics = compute(in_sensor)
        self._entries[in_sensor] = metrics
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return metrics

    def clear(self) -> None:
        """Drop all entries (owner's context changed); counters survive."""
        self._entries.clear()
