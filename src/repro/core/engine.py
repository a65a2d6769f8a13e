"""The executable cross-end engine.

A :class:`CrossEndEngine` runs a partitioned analytic pipeline the way the
deployed system would: in-sensor cells execute on (a software model of) the
sensor, every port value crossing the cut is marshalled over the link, and
in-aggregator cells execute on the aggregator.  Functionally the partition
must be invisible — the engine's predictions are verified against the
monolithic :meth:`~repro.cells.topology.CellTopology.execute` in the test
suite — while the traffic accounting reports exactly what crossed the air.

Which ports cross the cut depends only on the topology and the partition,
so the engine compiles both into a static plan when it is constructed: a
flat list of ``(run, reads, writes)`` steps in topological order, plus the
uplink/downlink port lists and value counts.  Marshalling hands a value
across unchanged, so one range of one flat float64 buffer per port serves
both ends, and classifying a segment is a single loop over the plan.

The cells of one module family on one end run as one step, the way the
paper's cells of one module run side by side on the sensor: the feature
cells of every band as one multi-band kernel pass, and the SVM members
as one step that scores each kernel's members against one stacked
support block (see :class:`~repro.cells.cell.CellFamily`).  Such a step
is ``buf[writes] = run(buf[reads])`` with precomputed indices.  The groups
are contracted and topologically sorted again; a group whose contraction
would close a cycle runs unfused.  Port accounting stays per cell.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Set, Tuple

import numpy as np

from repro.cells.cell import SOURCE_CELL, FunctionalCell, PortRef
from repro.cells.topology import CellTopology
from repro.core.partition import Partition
from repro.errors import ConfigurationError

#: One compiled step: ``(run, reads, writes)``.  A fused group's step has
#: buffer indices as ``reads`` and one slice as ``writes``, and runs
#: ``buf[writes] = run(buf[reads])``.  A lone cell's step is its
#: ``execute`` with one slice per input as ``reads`` and ``(port name,
#: slice)`` per output as ``writes``.
_Step = Tuple[Callable[..., Any], Any, Any]


def _groups(topology: CellTopology, in_sensor: frozenset) -> List[List[str]]:
    """Cells grouped for fusion, each group in topological order and the
    groups in the order of their first cells.

    The cells of one family (one ``build``) on one end share a group,
    whatever their keys; every other cell is alone.
    """
    groups: Dict[Hashable, List[str]] = {}
    for name in topology.cell_names:
        family = topology.cell(name).family
        key = name if family is None else (name in in_sensor, family.build)
        groups.setdefault(key, []).append(name)
    return list(groups.values())


def _contract(topology: CellTopology, groups: List[List[str]]) -> List[List[str]]:
    """The groups in a topological order of the contracted graph.

    Ties go to the group whose first cell comes first.  A cycle runs
    through at least one group of two or more cells (the cell graph itself
    is acyclic); the first such group on it is split into lone cells and
    the sort is repeated.
    """
    position = {name: i for i, name in enumerate(topology.cell_names)}
    while True:
        groups.sort(key=lambda names: position[names[0]])
        group_of = {name: g for g, names in enumerate(groups) for name in names}
        succ: List[Set[int]] = [set() for _ in groups]
        preds: List[Set[int]] = [set() for _ in groups]
        for g, names in enumerate(groups):
            for name in names:
                for ref in topology.cell(name).inputs:
                    p = group_of.get(ref.cell, g)  # the source maps to g
                    if p != g:
                        succ[p].add(g)
                        preds[g].add(p)
        indegree = [len(p) for p in preds]
        ready = [g for g, deg in enumerate(indegree) if deg == 0]
        order: List[int] = []
        while ready:
            g = heapq.heappop(ready)
            order.append(g)
            for s in succ[g]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) == len(groups):
            return [groups[g] for g in order]
        # Every unplaced group has an unplaced predecessor: walk back
        # through them until a group repeats, which closes a cycle.
        placed = set(order)
        walk: List[int] = [next(g for g in range(len(groups)) if g not in placed)]
        while walk.count(walk[-1]) < 2:
            walk.append(min(p for p in preds[walk[-1]] if p not in placed))
        cycle = walk[walk.index(walk[-1]) : -1]
        split = next(g for g in sorted(cycle) if len(groups[g]) > 1)
        groups[split : split + 1] = [[name] for name in groups[split]]


@dataclass(frozen=True)
class CrossEndResult:
    """Outcome of classifying one segment across the two ends.

    Attributes:
        prediction: Binary class decision.
        score: The fused classifier score behind the decision.
        uplink_ports: Port refs transmitted sensor -> aggregator.
        downlink_ports: (port, consumer) pairs received by in-sensor cells.
        uplink_values: Total scalar values sent up.
        downlink_values: Total scalar values sent down.
    """

    prediction: int
    score: float
    uplink_ports: Tuple[PortRef, ...]
    downlink_ports: Tuple[Tuple[PortRef, str], ...]
    uplink_values: int
    downlink_values: int


def sign_decode(score: float) -> int:
    """Default result decoding: binary decision from a signed score."""
    return int(score > 0)


def argmax_decode(score: float) -> int:
    """Result decoding for multi-class topologies whose result cell emits
    the winning class index directly (see :mod:`repro.core.multiclass`)."""
    return int(round(score))


class CrossEndEngine:
    """Executes a topology under a given partition.

    The partition and the port accounting are snapshotted at construction
    (see the module docstring); build a new engine to change either.

    Args:
        topology: The functional-cell dataflow graph.
        partition: Cell-to-end assignment (validated on construction).
        decode: Maps the result port's scalar to the class decision;
            defaults to :func:`sign_decode` (binary), use
            :func:`argmax_decode` for multi-class topologies.

    Attributes:
        uplink_ports: Ports sent sensor -> aggregator, in first-use order.
        downlink_ports: ``(port, consumer)`` pairs received by in-sensor
            cells, in first-use order.
        uplink_values: Total scalar values sent up per segment.
        downlink_values: Total scalar values sent down per segment.
    """

    def __init__(
        self,
        topology: CellTopology,
        partition: Partition,
        decode: Callable[[float], int] = sign_decode,
    ) -> None:
        self.topology = topology
        self.partition = partition.validate(topology)
        self.decode = decode
        in_sensor = self.partition.in_sensor

        def on_sensor(ref: PortRef) -> bool:
            return ref.cell == SOURCE_CELL or ref.cell in in_sensor

        uplinked: List[PortRef] = []
        sent_up: Set[PortRef] = set()
        downlinked: List[Tuple[PortRef, str]] = []
        for name in topology.cell_names:  # topological order
            cell = topology.cell(name)
            here = name in in_sensor
            # Uplink transfers happen once per port (the "grouped" rule:
            # one broadcast serves every back-end consumer), while downlink
            # receives are paid per in-sensor consumer — mirroring the
            # Tx/Rx edge construction of the s-t graph, so the accounting
            # matches the evaluator exactly.
            for ref in cell.inputs:
                if here and not on_sensor(ref):
                    downlinked.append((ref, name))
                elif not here and on_sensor(ref) and ref not in sent_up:
                    sent_up.add(ref)
                    uplinked.append(ref)
        # The classification result must reach the aggregator.
        result_ref = topology.result
        if on_sensor(result_ref) and result_ref not in sent_up:
            uplinked.append(result_ref)

        # Each port owns one range of the buffer, laid out in plan order.
        ranges: Dict[PortRef, slice] = {
            PortRef(SOURCE_CELL, "out"): slice(0, topology.segment_length)
        }
        end = topology.segment_length

        def allocate(cell: FunctionalCell) -> Tuple[Tuple[str, slice], ...]:
            nonlocal end
            writes = []
            for port in cell.outputs:
                span = ranges[PortRef(cell.name, port.name)] = slice(end, end + port.n_values)
                writes.append((port.name, span))
                end = span.stop
            return tuple(writes)

        def n_values(ref: PortRef) -> int:
            return topology.port_of(ref).n_values

        plan: List[_Step] = []
        for names in _contract(topology, _groups(topology, in_sensor)):
            cells = [topology.cell(name) for name in names]
            if len(cells) > 1:
                refs, run = cells[0].family.build(cells, n_values)
                # A group that reads one of its own outputs runs unfused.
                if all(ref in ranges for ref in refs):
                    reads = np.concatenate(
                        [np.arange(ranges[ref].start, ranges[ref].stop) for ref in refs]
                    )
                    start = end
                    for cell in cells:
                        allocate(cell)
                    plan.append((run, reads, slice(start, end)))
                    continue
            for cell in cells:
                reads = tuple(ranges[ref] for ref in cell.inputs)
                plan.append((cell.execute, reads, allocate(cell)))

        self._plan: Tuple[_Step, ...] = tuple(plan)
        self._size = end
        self._result = ranges[result_ref].start
        self.uplink_ports: Tuple[PortRef, ...] = tuple(uplinked)
        self.downlink_ports: Tuple[Tuple[PortRef, str], ...] = tuple(downlinked)
        self.uplink_values = sum(topology.port_of(ref).n_values for ref in uplinked)
        self.downlink_values = sum(
            topology.port_of(ref).n_values for ref, _ in downlinked
        )

    def _length_error(self) -> ConfigurationError:
        return ConfigurationError(
            f"segment must be 1-D of length {self.topology.segment_length}"
        )

    def _score(self, segment: np.ndarray) -> float:
        """Run the plan on one validated float64 segment."""
        buf = np.empty(self._size)
        buf[: len(segment)] = segment
        for run, reads, writes in self._plan:
            if type(writes) is slice:
                buf[writes] = run(buf[reads])
            else:
                outputs = run([buf[span] for span in reads])
                for port, span in writes:
                    buf[span] = outputs[port].reshape(-1)
        return float(buf[self._result])

    def classify(self, segment: np.ndarray) -> CrossEndResult:
        """Classify one raw segment through the partitioned pipeline."""
        arr = np.asarray(segment, dtype=np.float64)
        if arr.ndim != 1 or len(arr) != self.topology.segment_length:
            raise self._length_error()
        score = self._score(arr)
        return CrossEndResult(
            prediction=self.decode(score),
            score=score,
            uplink_ports=self.uplink_ports,
            downlink_ports=self.downlink_ports,
            uplink_values=self.uplink_values,
            downlink_values=self.downlink_values,
        )

    def classify_batch(self, segments: np.ndarray) -> np.ndarray:
        """Integer predictions for a ``(n_segments, segment_length)`` batch;
        an empty batch gives an empty ``(0,)`` array."""
        mat = np.asarray(segments, dtype=np.float64)
        if mat.ndim != 2:
            raise ConfigurationError("segments must be a 2-D batch")
        if mat.shape[1] != self.topology.segment_length:
            raise self._length_error()
        return np.array([self.decode(self._score(row)) for row in mat], dtype=int)
