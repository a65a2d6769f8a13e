"""Shared experiment context: train once, evaluate everywhere.

The evaluation sweeps (Figures 8-13) combine six test cases with three
process nodes, three wireless models and four cut strategies.  Training the
generic classifier is by far the slowest step and depends only on the test
case, so the context trains each case once and caches the result; topology
construction (which depends on the energy model through ALU-mode selection)
and partitioning are cheap and recomputed per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cells.topology import CellTopology
from repro.core.generator import AutomaticXProGenerator
from repro.core.pipeline import (
    TrainedAnalyticEngine,
    TrainingConfig,
    train_analytic_engine,
)
from repro.graph.cuts import aggregator_cut, sensor_cut, trivial_cut
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import EnergyLibrary
from repro.hw.wireless import WirelessLink
from repro.sim.evaluate import PartitionMetrics, evaluate_partition
from repro.sim.lifetime import MODALITY_SAMPLE_RATES, event_period_s
from repro.signals.datasets import CASE_ORDER, TABLE1_CASES, load_case

#: Default dataset subsample used by the evaluation harness.  Large enough
#: for the classifiers to develop realistic support-vector counts (which
#: drive the compute/communication balance), small enough that the whole
#: six-case sweep trains in minutes of pure Python.  Pass ``None`` to use
#: the full Table 1 sizes.
DEFAULT_EVAL_SEGMENTS: Optional[int] = 360

#: The four cut strategies of Figure 12 (and the three engines of Figs 8-11).
STRATEGIES = ("aggregator", "sensor", "trivial", "cross")


def case_period_s(symbol: str) -> float:
    """Event period of one Table-1 case: a segment at its modality's rate."""
    spec = TABLE1_CASES[symbol]
    return event_period_s(spec.segment_length, MODALITY_SAMPLE_RATES[spec.modality])


@dataclass
class ExperimentContext:
    """Caches trained engines and evaluates cut strategies per configuration.

    Attributes:
        n_segments: Per-case dataset subsample (None = full Table 1 size).
        training: Training protocol configuration.
        calibration: Computation-energy calibration factor passed to every
            :class:`~repro.hw.energy.EnergyLibrary` (see DESIGN.md).
    """

    n_segments: Optional[int] = DEFAULT_EVAL_SEGMENTS
    training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(n_draws=100)
    )
    calibration: Optional[float] = None
    cpu: AggregatorCPU = field(default_factory=AggregatorCPU)
    _engines: Dict[str, TrainedAnalyticEngine] = field(default_factory=dict)
    _topologies: Dict[Tuple[str, str], CellTopology] = field(default_factory=dict)
    _metrics: Dict[Tuple[str, str, str], Dict[str, PartitionMetrics]] = field(
        default_factory=dict
    )

    def engine(self, symbol: str) -> TrainedAnalyticEngine:
        """The trained analytic engine for one test case (cached)."""
        if symbol not in self._engines:
            dataset = load_case(symbol, self.n_segments)
            self._engines[symbol] = train_analytic_engine(dataset, self.training)
        return self._engines[symbol]

    def energy_library(self, node: str) -> EnergyLibrary:
        """Energy library for a process node, with the context calibration."""
        return EnergyLibrary(node, calibration=self.calibration)

    def topology(self, symbol: str, node: str) -> CellTopology:
        """Cell topology of one case under one process node (cached)."""
        key = (symbol, node)
        if key not in self._topologies:
            self._topologies[key] = self.engine(symbol).build_topology(
                self.energy_library(node)
            )
        return self._topologies[key]

    def generator(
        self, symbol: str, node: str = "90nm", wireless: str = "model2"
    ) -> AutomaticXProGenerator:
        """An Automatic XPro Generator for one configuration."""
        return AutomaticXProGenerator(
            self.topology(symbol, node),
            self.energy_library(node),
            WirelessLink(wireless),
            self.cpu,
        )

    def strategy_metrics(
        self, symbol: str, node: str = "90nm", wireless: str = "model2"
    ) -> Dict[str, PartitionMetrics]:
        """Metrics of all four cut strategies for one configuration.

        Keys: ``"aggregator"``, ``"sensor"``, ``"trivial"``, ``"cross"``.
        The cross cut is produced by the generator under the paper's Eq. 4
        delay limit.  Results are cached per configuration.
        """
        cache_key = (symbol, node, wireless)
        if cache_key in self._metrics:
            return self._metrics[cache_key]
        topology = self.topology(symbol, node)
        lib = self.energy_library(node)
        link = WirelessLink(wireless)

        def ev(in_sensor) -> PartitionMetrics:
            return evaluate_partition(topology, in_sensor, lib, link, self.cpu)

        gen = AutomaticXProGenerator(topology, lib, link, self.cpu)
        result = {
            "aggregator": ev(aggregator_cut(topology)),
            "sensor": ev(sensor_cut(topology)),
            "trivial": ev(trivial_cut(topology)),
            "cross": gen.generate().metrics,
        }
        self._metrics[cache_key] = result
        return result

    def all_cases(self) -> Tuple[str, ...]:
        """The six case symbols in paper order."""
        return CASE_ORDER
