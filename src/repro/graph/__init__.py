"""Graph-theory substrate: max-flow/min-cut and the XPro s-t construction.

- :mod:`repro.graph.maxflow` -- Dinic's algorithm with min-cut extraction,
  implemented from scratch.
- :mod:`repro.graph.stgraph` -- the paper's s-t graph (Section 3.2.2):
  front node ``F``, back node ``B``, per-port dummy data nodes generalising
  the paper's "D" node, compute edges, and Tx/Rx communication edge pairs,
  each edge priced as energy plus a delay price times its delay.
- :mod:`repro.graph.cuts` -- named reference cuts (in-sensor, in-aggregator,
  trivial feature/classifier boundary) and exhaustive enumeration for small
  topologies.
"""

from repro.graph.maxflow import FlowNetwork, MaxFlowResult
from repro.graph.stgraph import STGraph, TemplateSolveStats, build_st_graph
from repro.graph.cuts import (
    aggregator_cut,
    enumerate_partitions,
    sensor_cut,
    trivial_cut,
)

__all__ = [
    "FlowNetwork",
    "MaxFlowResult",
    "STGraph",
    "TemplateSolveStats",
    "aggregator_cut",
    "build_st_graph",
    "enumerate_partitions",
    "sensor_cut",
    "trivial_cut",
]
