"""The XPro s-t graph construction (Section 3.2.2).

Nodes:

- ``F`` — the front-end sensor node (cut source);
- ``B`` — the back-end aggregator (cut sink);
- one node per functional cell;
- one *data node* per produced port with at least one consumer (plus the
  result port).  Data nodes generalise the paper's dummy node "D": the
  paper introduces D for the raw source segment so that "grouped" cells
  (cells reading the same data) share a single transmission cost; the same
  construction applies verbatim to every intermediate port with multiple
  consumers, so we instantiate one per port.

Edges (capacity = energy in joules; cut counts edges from the F side to the
B side):

- ``cell -> B`` with the cell's in-sensor computation energy: cut exactly
  when the cell stays on the sensor (Eq. 2's ``P_i * t_i`` term);
- ``producer -> data_node`` with the port's one-shot transmission energy
  (payload + 8-bit header), and ``data_node -> consumer`` with infinite
  capacity: if the producer is on the sensor and *any* consumer is in the
  aggregator, the infinite edges force the data node to the B side and the
  Tx edge into the cut — transmission paid once, "grouped" property held;
- ``consumer -> producer`` with the port's reception energy: cut when the
  consumer sits on the sensor but its producer's data comes from the
  aggregator (the reverse-direction edge of the paper's construction);
- the raw segment is the virtual producer ``F`` itself (the paper's
  ``F -> D`` edge with the full-raw-transmission weight);
- the result port's data node gets an infinite edge to ``B``: the
  classification outcome must always reach the aggregator.

With this construction, the capacity of any finite F/B cut equals the
sensor-node energy per event of the corresponding partition — verified
against the independent system simulator in the integration tests — and the
min cut is the energy-optimal partition.

Delay (Section 3.2.3) enters as a second, per-edge attribute: each forward
edge also carries the delay its cut adds (in-sensor compute time on
``cell -> B``, link transfer time on Tx and Rx edges, and aggregator compute
time on a ``F -> cell`` edge cut exactly when the cell runs in the
aggregator).  At delay price ``lambda`` (J/s) an edge's capacity is
``energy + lambda * delay``; the delay-constrained generator searches over
``lambda``.  One built graph serves every price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.cells.cell import SOURCE_CELL, PortRef
from repro.cells.topology import CellTopology
from repro.errors import ConfigurationError, PartitionError
from repro.graph.maxflow import INFINITY, FlowNetwork
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import EnergyLibrary
from repro.hw.wireless import WirelessLink

#: Node ids of the two ends.
FRONT = "F"
BACK = "B"


def _data_node(ref: PortRef) -> str:
    return f"D[{ref.cell}.{ref.port}]"


@dataclass
class TemplateSolveStats:
    """Work counters of one :class:`STGraph` (for tests and tuning).

    Attributes:
        cold_solves: Solves that started from zero flow.
        warm_solves: Solves restarted from a stored residual state.
        cold_augmenting_paths: Augmenting paths pushed by the cold solves.
        warm_augmenting_paths: Augmenting paths pushed by the warm solves.
    """

    cold_solves: int = 0
    warm_solves: int = 0
    cold_augmenting_paths: int = 0
    warm_augmenting_paths: int = 0

    @property
    def total_solves(self) -> int:
        """All solves run through the graph."""
        return self.cold_solves + self.warm_solves


@dataclass
class STGraph:
    """The s-t graph of one hardware context, solvable at any delay price.

    The graph *structure* (nodes, arcs, twin pairing, CSR index) never
    changes across the generator's Lagrangian search — only the capacities
    move, linearly in the delay price: ``capacity(lambda) = base + lambda *
    coefficient`` per forward edge.  Every solve runs on a capacity clone
    (:meth:`~repro.graph.maxflow.FlowNetwork.clone_with_capacities`), so
    :attr:`network` keeps its ``lambda = 0`` capacities.  A warm solve
    restarts from the stored residual state of the largest previously
    solved ``lambda' <= lambda``: capacities are non-decreasing in lambda
    (all coefficients are non-negative), so the earlier flow is still
    feasible and only the incremental flow must be augmented.

    The graph holds no :class:`~repro.cells.topology.CellTopology`
    reference — just the derived arrays plus the cell-name set needed to
    interpret cuts — so it is picklable and can be shipped to the worker
    processes of :func:`repro.sim.parallel.parallel_map` (as its
    ``shared=`` state) even when the topology's cell compute closures are
    not.  Residual states belong to this graph
    only: when the topology, energy library, link or CPU model changes,
    build a new graph (the generator does this automatically).

    Attributes:
        network: The structure, carrying the ``lambda = 0`` base
            capacities.  Never solved directly.
        cell_names: Real cell names (terminals/data nodes are stripped
            from cut sides).
        base_capacities: Per-forward-edge energy term (J).
        delay_coefficients: Per-forward-edge delay term (s) priced by
            lambda (J/s).
        max_warm_states: Bound on stored residual states.
        stats: Accumulated work counters.
    """

    network: FlowNetwork
    cell_names: FrozenSet[str]
    base_capacities: List[float]
    delay_coefficients: List[float]
    max_warm_states: int = 64
    stats: TemplateSolveStats = field(default_factory=TemplateSolveStats)
    _states: List[Tuple[float, List[float]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        n_edges = self.network.n_forward_edges
        if len(self.base_capacities) != n_edges:
            raise ConfigurationError("base capacities do not match the network")
        if len(self.delay_coefficients) != n_edges:
            raise ConfigurationError("delay coefficients do not match the network")
        if any(c < 0 for c in self.delay_coefficients):
            raise ConfigurationError("delay coefficients must be non-negative")
        if self.max_warm_states < 1:
            raise ConfigurationError("max_warm_states must be >= 1")

    def _best_state(self, lam: float) -> Optional[Tuple[float, List[float]]]:
        """The stored state with the largest ``lambda' <= lam``, if any."""
        best: Optional[Tuple[float, List[float]]] = None
        for state in self._states:
            if state[0] <= lam and (best is None or state[0] > best[0]):
                best = state
        return best

    def _store_state(self, lam: float, residual: List[float]) -> None:
        for i, (stored_lam, _) in enumerate(self._states):
            if stored_lam == lam:
                self._states[i] = (lam, residual)
                return
        self._states.append((lam, residual))
        self._states.sort(key=lambda s: s[0])
        if len(self._states) > self.max_warm_states:
            # Keep the lambda = 0 anchor and the spread of larger prices;
            # evict the smallest non-anchor lambda (densest, least reused
            # once the bisection has moved past it).
            del self._states[1]

    def capacities(self, lam: float) -> List[float]:
        """Forward-edge capacities at one delay price."""
        if lam < 0:
            raise ConfigurationError("lambda must be non-negative")
        if lam == 0.0:
            return list(self.base_capacities)
        return [
            b + lam * c
            for b, c in zip(self.base_capacities, self.delay_coefficients)
        ]

    def solve(
        self, lam: float = 0.0, warm: bool = True
    ) -> Tuple[FrozenSet[str], float]:
        """Min cut at one delay price; returns (in-sensor cells, capacity).

        The returned set contains only real cell names (data nodes and the
        F/B terminals are stripped).

        Args:
            lam: The Lagrangian delay price in J/s (0 = pure energy cut).
            warm: Restart from the best stored residual state when one
                exists (and store this solve's state for later re-solves).
                ``False`` forces a cold solve that leaves the stored states
                untouched.
        """
        caps = self.capacities(lam)
        state = self._best_state(lam) if warm else None
        if state is None:
            net = self.network.clone_with_capacities(caps)
            base_flow = 0.0
        else:
            # Re-impose the earlier flow on the re-priced capacities: the
            # flow on forward arc 2k is exactly its residual twin 2k+1.
            # Capacities are non-decreasing in lambda, so the flow stays
            # feasible; the clamp only guards pathological float drift.
            _, residual = state
            flows = [c if f > c else f for c, f in zip(caps, residual[1::2])]
            full = [0.0] * (2 * len(caps))
            full[0::2] = [c - f for c, f in zip(caps, flows)]
            full[1::2] = flows
            net = self.network.clone_with_capacities(residual_capacities=full)
            base_flow = net.net_flow_from(FRONT)
        result = net.max_flow(FRONT, BACK)
        if state is None:
            self.stats.cold_solves += 1
            self.stats.cold_augmenting_paths += result.augmenting_paths
        else:
            self.stats.warm_solves += 1
            self.stats.warm_augmenting_paths += result.augmenting_paths
        total = base_flow + result.max_flow
        if total == INFINITY:
            raise PartitionError("s-t graph has no finite cut (bad construction)")
        if warm:
            self._store_state(lam, net.residual_capacities())
        in_sensor = frozenset(
            n for n in result.source_side if n in self.cell_names
        )
        return in_sensor, total


def build_st_graph(
    topology: CellTopology,
    energy_lib: EnergyLibrary,
    link: WirelessLink,
    cpu: Optional[AggregatorCPU] = None,
) -> STGraph:
    """Build the s-t graph for a topology under given hardware models.

    Args:
        topology: The functional-cell dataflow graph.
        energy_lib: In-sensor energy model (node + ALU modes).
        link: Wireless link model (Tx/Rx energies and transfer delay).
        cpu: Aggregator CPU model.  When given, every edge carries its
            delay coefficient and each cell with a positive aggregator
            compute time gets a ``F -> cell`` edge (zero capacity at
            ``lambda = 0``, so it never changes the energy cut).  When
            None, every coefficient is 0: a plain energy graph.

    Returns:
        The :class:`STGraph` ready to :meth:`~STGraph.solve`.
    """
    net = FlowNetwork()
    base: List[float] = []
    coef: List[float] = []

    def edge(u: str, v: str, energy: float, delay: float = 0.0) -> None:
        net.add_edge(u, v, energy)
        base.append(energy)
        coef.append(delay)

    priced = cpu is not None
    consumers_map = topology.consumers_by_port()
    result_ref = topology.result

    for name, cell in topology.cells.items():
        cost = energy_lib.cell_cost(cell.op_counts, cell.mode, cell.parallel_width)
        compute_s = energy_lib.seconds(cost.cycles) if priced else 0.0
        edge(name, BACK, cost.energy_j, compute_s)
        back_s = cpu.compute_time(cell.op_counts) if cpu is not None else 0.0
        if back_s > 0.0:
            edge(FRONT, name, 0.0, back_s)

    for ref, port in topology.producer_ports():
        port_consumers = consumers_map.get(ref, [])
        is_result = ref == result_ref
        if not port_consumers and not is_result:
            continue
        dnode = _data_node(ref)
        producer = FRONT if ref.cell == SOURCE_CELL else ref.cell
        n, bits = port.n_values, port.bits_per_value
        transfer_s = link.transfer_delay(n, bits) if priced else 0.0
        edge(producer, dnode, link.tx_energy(n, bits), transfer_s)
        for consumer in port_consumers:
            edge(dnode, consumer, INFINITY)
            if ref.cell != SOURCE_CELL:
                edge(consumer, ref.cell, link.rx_energy(n, bits), transfer_s)
        if is_result:
            edge(dnode, BACK, INFINITY)

    return STGraph(
        network=net,
        cell_names=frozenset(topology.cells),
        base_capacities=base,
        delay_coefficients=coef,
    )
