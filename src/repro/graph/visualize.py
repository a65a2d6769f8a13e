"""Graphviz DOT export of topologies and s-t graphs.

For users with graphviz available, these exporters produce DOT sources of
the functional-cell dataflow and of the §3.2 s-t graph (with edge weights
in nanojoules) — the diagrams of the paper's Figures 6 and 7, generated
from live objects.  The library itself never shells out to ``dot``; it
only emits the text.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.cells.cell import SOURCE_CELL
from repro.cells.topology import CellTopology
from repro.graph.maxflow import INFINITY
from repro.graph.stgraph import STGraph


def _quote(name: str) -> str:
    return '"' + name.replace('"', r"\"") + '"'


def topology_to_dot(
    topology: CellTopology,
    in_sensor: Optional[FrozenSet[str]] = None,
) -> str:
    """DOT source for the functional-cell dataflow graph (Fig. 6b style).

    Args:
        topology: The cell graph.
        in_sensor: Optional partition; in-sensor cells are filled.
    """
    lines: List[str] = [
        "digraph topology {",
        "  rankdir=LR;",
        "  node [shape=box, fontsize=10];",
        f"  {_quote(SOURCE_CELL)} [shape=ellipse, label=\"source\\n"
        f"{topology.segment_length} samples\"];",
    ]
    for name, cell in topology.cells.items():
        style = ""
        if in_sensor is not None:
            style = (
                ', style=filled, fillcolor="lightblue"'
                if name in in_sensor
                else ', style=filled, fillcolor="lightgray"'
            )
        label = f"{name}\\n{cell.module}/{cell.mode.value}"
        lines.append(f"  {_quote(name)} [label=\"{label}\"{style}];")
    for name, cell in topology.cells.items():
        for ref in cell.inputs:
            dim = topology.port_of(ref).n_values
            lines.append(
                f"  {_quote(ref.cell)} -> {_quote(name)} [label=\"{dim}\"];"
            )
    lines.append("}")
    return "\n".join(lines)


def st_graph_to_dot(graph: STGraph) -> str:
    """DOT source for the s-t graph (Fig. 7 style), energy weights in nJ."""
    lines: List[str] = [
        "digraph stgraph {",
        "  rankdir=LR;",
        "  node [fontsize=10];",
        '  "F" [shape=doublecircle]; "B" [shape=doublecircle];',
    ]
    for u, v, capacity in graph.network.edge_list():
        if capacity == INFINITY:
            label = "inf"
            attrs = ', style=dashed'
        else:
            label = f"{capacity * 1e9:.3g}"
            attrs = ""
        lines.append(
            f"  {_quote(str(u))} -> {_quote(str(v))} "
            f"[label=\"{label}\"{attrs}];"
        )
    lines.append("}")
    return "\n".join(lines)
