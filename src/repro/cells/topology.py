"""The functional-cell topology graph (paper Fig. 6b).

A :class:`CellTopology` is the dataflow DAG of one generic-classification
instance: a virtual source (the sensed segment) plus functional cells wired
producer-port -> consumer.  It provides the structural queries every later
stage needs — topological order for execution, consumer maps for the s-t
graph construction, and the result port whose value must always reach the
aggregator.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.cells.cell import (
    SOURCE_BITS,
    SOURCE_CELL,
    FunctionalCell,
    OutputPort,
    PortRef,
)
from repro.errors import ConfigurationError, TopologyError


class CellTopology:
    """The dataflow graph of functional cells for one XPro instance.

    Args:
        segment_length: Number of raw samples in the sensed segment (the
            virtual source's output dimension).
        cells: The functional cells; producers must be added before (or
            together with) their consumers — order inside the iterable does
            not matter, validation is global.
        result: Port reference carrying the final classification output; its
            value must reach the aggregator in any partition.
        source_bits: On-air bits per raw sample (default
            :data:`~repro.cells.cell.SOURCE_BITS`).
    """

    def __init__(
        self,
        segment_length: int,
        cells: Iterable[FunctionalCell],
        result: PortRef,
        source_bits: int = SOURCE_BITS,
    ) -> None:
        if segment_length <= 0:
            raise ConfigurationError("segment_length must be positive")
        self.segment_length = int(segment_length)
        self.source_port = OutputPort("out", self.segment_length, source_bits)
        self._cells: Dict[str, FunctionalCell] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise TopologyError(f"duplicate cell name {cell.name!r}")
            self._cells[cell.name] = cell
        self.result = result
        self._validate()
        self._order = self._topological_order()
        self._build_port_maps()

    # -- validation / structure ----------------------------------------------

    def _validate(self) -> None:
        for cell in self._cells.values():
            for ref in cell.inputs:
                port = self.port_of(ref)  # raises if dangling
                del port
        if self.result.cell not in self._cells:
            raise TopologyError(f"result cell {self.result.cell!r} not in topology")
        self._cells[self.result.cell].port(self.result.port)

    def _topological_order(self) -> List[str]:
        indegree: Dict[str, int] = {name: 0 for name in self._cells}
        dependents: Dict[str, List[str]] = {name: [] for name in self._cells}
        for cell in self._cells.values():
            for ref in cell.inputs:
                if ref.cell == SOURCE_CELL:
                    continue
                indegree[cell.name] += 1
                dependents[ref.cell].append(cell.name)
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for dep in dependents[name]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
            ready.sort()
        if len(order) != len(self._cells):
            cyclic = sorted(set(self._cells) - set(order))
            raise TopologyError(f"cell topology contains a cycle through {cyclic}")
        return order

    def _build_port_maps(self) -> None:
        """Derive the port maps once; the topology is immutable afterwards."""
        # Per port: every read in topological order (a cell reading a port
        # twice appears twice).
        readers: Dict[PortRef, List[str]] = {}
        for name in self._order:
            for inp in self._cells[name].inputs:
                readers.setdefault(inp, []).append(name)
        pairs = [(PortRef(SOURCE_CELL, "out"), self.source_port)] + [
            (PortRef(name, p.name), p)
            for name in self._order
            for p in self._cells[name].outputs
        ]
        # Consumed ports reuse the cells' input refs: topologies are many
        # and long-lived, and the refs are most of the maps' footprint.
        canonical = {ref: ref for ref in readers}
        self._producer_ports = tuple(
            (canonical.get(ref, ref), port) for ref, port in pairs
        )
        self._consumers_by_port = {
            ref: tuple(readers.get(ref, ())) for ref, _ in self._producer_ports
        }

    # -- queries ---------------------------------------------------------------

    @property
    def cells(self) -> Mapping[str, FunctionalCell]:
        """All cells keyed by name."""
        return dict(self._cells)

    @property
    def cell_names(self) -> Tuple[str, ...]:
        """Cell names in topological (execution) order."""
        return tuple(self._order)

    def cell(self, name: str) -> FunctionalCell:
        """Look up a cell by name."""
        if name not in self._cells:
            raise TopologyError(f"no cell named {name!r}")
        return self._cells[name]

    def port_of(self, ref: PortRef) -> OutputPort:
        """Resolve a port reference (including the virtual source)."""
        if ref.cell == SOURCE_CELL:
            if ref.port != "out":
                raise TopologyError(f"source has a single port 'out', not {ref.port!r}")
            return self.source_port
        return self.cell(ref.cell).port(ref.port)

    def producer_ports(self) -> Tuple[Tuple[PortRef, OutputPort], ...]:
        """All (ref, port) pairs in the graph, source first."""
        return self._producer_ports

    def consumers(self, ref: PortRef) -> List[str]:
        """Names of cells that read the given producer port (insertion order)."""
        readers = self._consumers_by_port.get(ref, ())
        return [name for name in self._cells if name in readers]

    def consumers_by_port(self) -> Mapping[PortRef, Tuple[str, ...]]:
        """Read-only map of every produced port to its consumer cells.

        Consumers are in topological order, once per read.
        """
        return MappingProxyType(self._consumers_by_port)

    def predecessors(self, name: str) -> Set[str]:
        """Direct predecessor cell names of a cell (excluding the source)."""
        return {
            ref.cell for ref in self.cell(name).inputs if ref.cell != SOURCE_CELL
        }

    def reads_source(self, name: str) -> bool:
        """Whether a cell consumes the raw sensed segment directly."""
        return any(ref.cell == SOURCE_CELL for ref in self.cell(name).inputs)

    def __len__(self) -> int:
        return len(self._cells)

    # -- execution ---------------------------------------------------------------

    def execute(self, segment: Sequence[float]) -> Dict[PortRef, np.ndarray]:
        """Run the whole pipeline monolithically on one segment.

        Returns the value of every produced port (including the source),
        keyed by :class:`PortRef`.  Used as the ground truth the cross-end
        engine is verified against.
        """
        arr = np.asarray(segment, dtype=np.float64)
        if arr.ndim != 1 or len(arr) != self.segment_length:
            raise ConfigurationError(
                f"segment must be 1-D of length {self.segment_length}"
            )
        values: Dict[PortRef, np.ndarray] = {PortRef(SOURCE_CELL, "out"): arr}
        for name in self._order:
            cell = self._cells[name]
            inputs = [values[ref] for ref in cell.inputs]
            outputs = cell.execute(inputs)
            for port_name, value in outputs.items():
                values[PortRef(name, port_name)] = value
        return values

    def classify(self, segment: Sequence[float]) -> int:
        """Monolithic end-to-end classification of one segment."""
        values = self.execute(segment)
        score = float(np.atleast_1d(values[self.result])[0])
        return int(score > 0)
