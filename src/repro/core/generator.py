"""The Automatic XPro Generator (Section 3.2).

Given a functional-cell topology and the hardware models, the generator
finds the in-sensor/in-aggregator partition minimising sensor-node energy:

- **without a delay constraint** (Section 3.2.2): exact s-t min cut on the
  graph of :mod:`repro.graph.stgraph` via Dinic's algorithm;
- **with a delay constraint** (Section 3.2.3): the paper folds delay into
  the same graph as a second edge attribute.  We realise that as a
  Lagrangian relaxation — each candidate multiplier ``lambda`` prices delay
  into the edge capacities (``energy + lambda * delay``) and yields one
  min-cut candidate; candidates are screened against the *true* delay model
  (front critical path + link serialisation + back CPU time) and the
  cheapest feasible one wins.  The two single-end extremes are always
  included as candidates, so with the paper's Eq. 4 limit
  ``T = min(T_sensor, T_aggregator)`` a feasible solution always exists and
  the result is never worse than either single-end engine.

For small topologies :meth:`AutomaticXProGenerator.generate_exhaustive`
certifies optimality by brute force (used by the test suite).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.cells.topology import CellTopology
from repro.core.partition import Partition
from repro.errors import ConfigurationError, InfeasibleConstraintError
from repro.graph.cuts import aggregator_cut, enumerate_partitions, sensor_cut
from repro.graph.stgraph import STGraph, build_st_graph
from repro.hw.aggregator import AggregatorCPU
from repro.hw.energy import EnergyLibrary
from repro.hw.wireless import WirelessLink
from repro.sim.evaluate import (
    PartitionEvaluationCache,
    PartitionMetrics,
    evaluate_partition,
)

logger = logging.getLogger("repro.generator")


@dataclass(frozen=True)
class GeneratorResult:
    """Outcome of one generator run.

    Attributes:
        partition: The chosen in-sensor cell assignment.
        metrics: Full per-event metrics of that partition.
        delay_limit_s: The delay constraint that was enforced (None if
            unconstrained).
        candidates_evaluated: Unique partitions priced through the
            energy/delay model during the call — bisection feasibility
            probes included, repeats served by the memo not
            double-counted.
    """

    partition: Partition
    metrics: PartitionMetrics
    delay_limit_s: Optional[float]
    candidates_evaluated: int


class AutomaticXProGenerator:
    """Finds energy-optimal cross-end partitions for one topology.

    The generator keeps two per-instance fast-path structures, both tied to
    its ``(topology, energy_lib, link, cpu)`` context:

    - one :class:`~repro.graph.stgraph.STGraph` (:attr:`template`), so the
      Lagrangian bisection re-prices one prebuilt s-t graph and warm-starts
      each solve from the previous residual flow (``warm_start=True``);
    - a bounded :class:`~repro.sim.evaluate.PartitionEvaluationCache` so
      repeated probes of the same cut hit the energy/delay model once
      (``cache_size`` entries; 0 disables).

    Both are invalidated automatically when any of the four model
    attributes is rebound; call :meth:`invalidate_caches` after mutating a
    model *in place*.

    Args:
        topology: The functional-cell dataflow graph.
        energy_lib: In-sensor energy model (process node, ALU modes).
        link: Wireless transceiver model.
        cpu: Aggregator CPU model (for the delay model and Fig. 13).
        warm_start: Reuse one s-t graph and its residual flows across
            solves (``False`` builds a fresh graph per solve and solves it
            cold: the reference the fast path is measured against).
        cache_size: Bound of the partition-evaluation memo (0 disables).
    """

    def __init__(
        self,
        topology: CellTopology,
        energy_lib: EnergyLibrary,
        link: WirelessLink,
        cpu: AggregatorCPU,
        *,
        warm_start: bool = True,
        cache_size: int = 256,
    ) -> None:
        self.topology = topology
        self.energy_lib = energy_lib
        self.link = link
        self.cpu = cpu
        self.warm_start = warm_start
        self._eval_cache = PartitionEvaluationCache(maxsize=cache_size)
        self._template: Optional[STGraph] = None
        self._context_key: Optional[Tuple[int, int, int, int]] = None

    # -- fast-path cache management ---------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop the cached s-t graph and the evaluation memo.

        Needed only after mutating one of the model objects *in place*;
        rebinding ``self.topology``/``self.energy_lib``/``self.link``/
        ``self.cpu`` to a different object is detected automatically.
        """
        self._template = None
        self._context_key = None
        self._eval_cache.clear()

    def _check_context(self) -> None:
        key = (id(self.topology), id(self.energy_lib), id(self.link), id(self.cpu))
        if self._context_key != key:
            self._template = None
            self._eval_cache.clear()
            self._context_key = key

    @property
    def evaluation_cache(self) -> PartitionEvaluationCache:
        """The partition-evaluation memo (hit/miss counters for tests)."""
        return self._eval_cache

    @property
    def template(self) -> Optional[STGraph]:
        """The cached s-t graph every warm solve re-prices, if built yet."""
        self._check_context()
        return self._template

    def _build_graph(self) -> STGraph:
        return build_st_graph(self.topology, self.energy_lib, self.link, self.cpu)

    def _solve(self, lam: float) -> Tuple[FrozenSet[str], float]:
        """Min cut at delay price ``lam`` (J/s): (in-sensor cells, capacity)."""
        if not self.warm_start:
            return self._build_graph().solve(lam, warm=False)
        self._check_context()
        if self._template is None:
            self._template = self._build_graph()
        return self._template.solve(lam)

    # -- evaluation helpers ------------------------------------------------------

    def evaluate(self, in_sensor: FrozenSet[str]) -> PartitionMetrics:
        """Metrics of an arbitrary partition under this generator's models."""
        self._check_context()
        return self._eval_cache.get_or_compute(
            frozenset(in_sensor), self._evaluate_uncached
        )

    def _evaluate_uncached(self, in_sensor: FrozenSet[str]) -> PartitionMetrics:
        return evaluate_partition(
            self.topology, in_sensor, self.energy_lib, self.link, self.cpu
        )

    def reference_metrics(self) -> Dict[str, PartitionMetrics]:
        """Metrics of the single-end engines (keys: "sensor", "aggregator")."""
        return {
            "sensor": self.evaluate(sensor_cut(self.topology)),
            "aggregator": self.evaluate(aggregator_cut(self.topology)),
        }

    def paper_delay_limit(self) -> float:
        """Eq. 4: ``T_XPro = min(T_F, T_B)`` over the single-end engines."""
        refs = self.reference_metrics()
        return min(refs["sensor"].delay_total_s, refs["aggregator"].delay_total_s)

    # -- unconstrained min cut ------------------------------------------------------

    def min_cut_partition(self) -> Partition:
        """Exact energy-minimal partition, ignoring delay (Section 3.2.2)."""
        in_sensor, capacity = self._solve(0.0)
        logger.debug(
            "min-cut: %d/%d cells in-sensor, capacity %.4g J",
            len(in_sensor), len(self.topology), capacity,
        )
        return Partition(in_sensor=in_sensor, label="cross")

    # -- delay-constrained generation --------------------------------------------------

    def generate(
        self,
        delay_limit_s: Optional[float] = None,
        use_paper_limit: bool = True,
        lagrangian_steps: int = 24,
    ) -> GeneratorResult:
        """Produce the XPro partition (the generator's main entry point).

        Args:
            delay_limit_s: Explicit delay constraint in seconds.  If None
                and ``use_paper_limit``, the Eq. 4 limit
                ``min(T_sensor, T_aggregator)`` is applied; if None and
                ``use_paper_limit`` is False, the cut is unconstrained.
            use_paper_limit: Whether a None limit means "paper limit"
                rather than "no limit".
            lagrangian_steps: Bisection steps over the delay price.

        Returns:
            The cheapest feasible partition found.

        Raises:
            InfeasibleConstraintError: If an explicit ``delay_limit_s`` is
                tighter than every candidate (cannot happen with the paper
                limit).
        """
        limit = delay_limit_s
        if limit is None and use_paper_limit:
            limit = self.paper_delay_limit()
        if limit is not None and limit <= 0:
            raise ConfigurationError("delay limit must be positive")

        # Every evaluation in this call goes through `ev` so that
        # `candidates_evaluated` counts *unique model evaluations* — each
        # distinct partition is priced once (the memo serves repeats), and
        # bisection feasibility probes are not double-counted against the
        # final screening pass.
        tracked: set = set()

        def ev(in_sensor: FrozenSet[str]) -> PartitionMetrics:
            key = frozenset(in_sensor)
            tracked.add(key)
            return self.evaluate(key)

        candidates: List[Tuple[FrozenSet[str], str]] = [
            (sensor_cut(self.topology), "sensor"),
            (aggregator_cut(self.topology), "aggregator"),
            (self.min_cut_partition().in_sensor, "cross"),
        ]

        if limit is not None:
            # Only bother with Lagrangian pricing if the unconstrained
            # optimum violates the limit.
            unconstrained_metrics = ev(candidates[2][0])
            if unconstrained_metrics.delay_total_s > limit:
                logger.debug(
                    "unconstrained cut violates delay limit "
                    "(%.4g s > %.4g s); starting Lagrangian search",
                    unconstrained_metrics.delay_total_s, limit,
                )
                lo, hi = 0.0, self._initial_lambda()
                # Grow hi until its cut is delay-feasible (or give up and
                # rely on the single-end candidates).
                for _ in range(20):
                    cut, _ = self._solve(hi)
                    if ev(cut).delay_total_s <= limit:
                        break
                    hi *= 4.0
                for _ in range(lagrangian_steps):
                    mid = (lo + hi) / 2.0
                    cut, _ = self._solve(mid)
                    candidates.append((cut, "cross"))
                    if ev(cut).delay_total_s <= limit:
                        hi = mid
                    else:
                        lo = mid

        best: Optional[Tuple[PartitionMetrics, str]] = None
        seen = set()
        for in_sensor, label in candidates:
            if in_sensor in seen:
                continue
            seen.add(in_sensor)
            metrics = ev(in_sensor)
            if limit is not None and metrics.delay_total_s > limit * (1 + 1e-9):
                continue
            if best is None or metrics.sensor_total_j < best[0].sensor_total_j:
                best = (metrics, label)
        evaluated = len(tracked)
        if best is None:
            raise InfeasibleConstraintError(
                f"no partition satisfies delay limit {limit!r} s"
            )
        metrics, label = best
        logger.debug(
            "generate: chose %s cut, %d cells in-sensor, %.4g J/event, "
            "%.4g s delay (%d candidates screened)",
            label, len(metrics.in_sensor), metrics.sensor_total_j,
            metrics.delay_total_s, evaluated,
        )
        return GeneratorResult(
            partition=Partition(in_sensor=metrics.in_sensor, label=label),
            metrics=metrics,
            delay_limit_s=limit,
            candidates_evaluated=evaluated,
        )

    def _initial_lambda(self) -> float:
        """A delay price scale: total sensor energy per unit total delay."""
        refs = self.reference_metrics()
        energy_scale = max(m.sensor_total_j for m in refs.values())
        delay_scale = max(m.delay_total_s for m in refs.values())
        if delay_scale <= 0:
            return 1.0
        return energy_scale / delay_scale

    # -- exhaustive certification ---------------------------------------------------

    def generate_exhaustive(
        self, delay_limit_s: Optional[float] = None, max_cells: int = 16
    ) -> GeneratorResult:
        """Brute-force optimal partition (small topologies only).

        Used by the test suite to certify that :meth:`generate` returns the
        true optimum.
        """
        best: Optional[PartitionMetrics] = None
        evaluated = 0
        for in_sensor in enumerate_partitions(self.topology, max_cells=max_cells):
            metrics = self.evaluate(in_sensor)
            evaluated += 1
            if delay_limit_s is not None and metrics.delay_total_s > delay_limit_s:
                continue
            if best is None or metrics.sensor_total_j < best.sensor_total_j:
                best = metrics
        if best is None:
            raise InfeasibleConstraintError(
                f"no partition satisfies delay limit {delay_limit_s!r} s"
            )
        return GeneratorResult(
            partition=Partition(in_sensor=best.in_sensor, label="exhaustive"),
            metrics=best,
            delay_limit_s=delay_limit_s,
            candidates_evaluated=evaluated,
        )
