"""One function per paper table/figure, returning structured result rows.

Every function takes an :class:`~repro.eval.context.ExperimentContext`
(trained engines are cached inside it) and returns a list of plain dicts so
benchmarks, examples and tests can consume the same data.  The mapping to
the paper:

========  ============================================================
Function  Paper artefact
========  ============================================================
table1    Table 1 — dataset attributes
fig4      Figure 4 — ALU-mode energy characterisation per module
fig8      Figure 8 — battery life vs process node (wireless Model 2)
fig9      Figure 9 — battery life vs wireless model (90 nm)
fig10     Figure 10 — delay breakdown of the three engines
fig11     Figure 11 — sensor energy breakdown of the three engines
fig12     Figure 12 — lifetime of the four cuts
fig13     Figure 13 — energy overhead on the aggregator
headline  Section 5 headline claims (battery x, delay %)
========  ============================================================
"""

from __future__ import annotations

from typing import Dict, List

from repro.cells.library import characterize_all_modules
from repro.eval.context import STRATEGIES, ExperimentContext, case_period_s
from repro.sim.lifetime import battery_lifetime_hours
from repro.signals.datasets import table1

#: Engine label shorthand used in the paper's bar charts.
ENGINE_LABELS = {"aggregator": "A", "sensor": "S", "cross": "C", "trivial": "T"}


def _lifetime_hours(metrics, symbol: str) -> float:
    return battery_lifetime_hours(metrics.sensor_total_j, case_period_s(symbol))


def table1_rows() -> List[Dict[str, object]]:
    """Table 1: attributes of the six test cases."""
    return table1()


def fig4_rows(context: ExperimentContext, node: str = "90nm") -> List[Dict[str, object]]:
    """Figure 4: per-mode energy (pJ/event) of every module with the optimum."""
    rows: List[Dict[str, object]] = []
    lib = context.energy_library(node)
    for char in characterize_all_modules(lib):
        row: Dict[str, object] = {"module": char.module}
        for mode, energy in char.per_mode.items():
            row[mode.value] = energy / 1e-12  # pJ
        row["best_mode"] = char.best_mode.value
        rows.append(row)
    return rows


def fig8_rows(
    context: ExperimentContext,
    nodes: tuple = ("130nm", "90nm", "45nm"),
    wireless: str = "model2",
) -> List[Dict[str, object]]:
    """Figure 8: battery life per case/engine/node, normalised to aggregator.

    One row per (node, case) with absolute lifetimes and per-engine values
    normalised to the aggregator engine of the same configuration.
    """
    rows: List[Dict[str, object]] = []
    for node in nodes:
        for symbol in context.all_cases():
            metrics = context.strategy_metrics(symbol, node, wireless)
            lifetimes = {
                eng: _lifetime_hours(metrics[eng], symbol)
                for eng in ("aggregator", "sensor", "cross")
            }
            base = lifetimes["aggregator"]
            row: Dict[str, object] = {"node": node, "case": symbol}
            for eng, hours in lifetimes.items():
                row[f"{eng}_hours"] = hours
                row[f"{eng}_norm"] = hours / base
            rows.append(row)
    return rows


def fig9_rows(
    context: ExperimentContext,
    node: str = "90nm",
    models: tuple = ("model1", "model2", "model3"),
) -> List[Dict[str, object]]:
    """Figure 9: battery life per case/engine/wireless model at 90 nm.

    Normalised, as in the paper, to the aggregator engine under Model 1.
    """
    rows: List[Dict[str, object]] = []
    baselines: Dict[str, float] = {}
    for symbol in context.all_cases():
        metrics = context.strategy_metrics(symbol, node, models[0])
        baselines[symbol] = _lifetime_hours(metrics["aggregator"], symbol)
    for model in models:
        for symbol in context.all_cases():
            metrics = context.strategy_metrics(symbol, node, model)
            row: Dict[str, object] = {"wireless": model, "case": symbol}
            for eng in ("aggregator", "sensor", "cross"):
                hours = _lifetime_hours(metrics[eng], symbol)
                row[f"{eng}_hours"] = hours
                row[f"{eng}_norm"] = hours / baselines[symbol]
            rows.append(row)
    return rows


def fig10_rows(
    context: ExperimentContext, node: str = "90nm", wireless: str = "model2"
) -> List[Dict[str, object]]:
    """Figure 10: delay breakdown (front / wireless / back) per case/engine."""
    rows: List[Dict[str, object]] = []
    for symbol in context.all_cases():
        metrics = context.strategy_metrics(symbol, node, wireless)
        for eng in ("aggregator", "sensor", "cross"):
            m = metrics[eng]
            rows.append(
                {
                    "case": symbol,
                    "engine": ENGINE_LABELS[eng],
                    "front_ms": m.delay_front_s * 1e3,
                    "wireless_ms": m.delay_link_s * 1e3,
                    "back_ms": m.delay_back_s * 1e3,
                    "total_ms": m.delay_total_s * 1e3,
                }
            )
    return rows


def fig11_rows(
    context: ExperimentContext, node: str = "90nm", wireless: str = "model2"
) -> List[Dict[str, object]]:
    """Figure 11: sensor energy breakdown (compute / wireless) per case/engine."""
    rows: List[Dict[str, object]] = []
    for symbol in context.all_cases():
        metrics = context.strategy_metrics(symbol, node, wireless)
        for eng in ("aggregator", "sensor", "cross"):
            m = metrics[eng]
            rows.append(
                {
                    "case": symbol,
                    "engine": ENGINE_LABELS[eng],
                    "compute_uj": m.sensor_compute_j * 1e6,
                    "wireless_uj": m.sensor_wireless_j * 1e6,
                    "total_uj": m.sensor_total_j * 1e6,
                }
            )
    return rows


def fig12_rows(
    context: ExperimentContext, node: str = "90nm", wireless: str = "model2"
) -> List[Dict[str, object]]:
    """Figure 12: battery lifetime of the four cuts per case."""
    rows: List[Dict[str, object]] = []
    for symbol in context.all_cases():
        metrics = context.strategy_metrics(symbol, node, wireless)
        row: Dict[str, object] = {"case": symbol}
        for strategy in STRATEGIES:
            row[f"{strategy}_hours"] = _lifetime_hours(metrics[strategy], symbol)
        rows.append(row)
    return rows


def fig13_rows(
    context: ExperimentContext, node: str = "90nm", wireless: str = "model2"
) -> List[Dict[str, object]]:
    """Figure 13: per-event energy overhead on the aggregator, A vs C."""
    rows: List[Dict[str, object]] = []
    for symbol in context.all_cases():
        metrics = context.strategy_metrics(symbol, node, wireless)
        agg = metrics["aggregator"].aggregator_total_j
        cross = metrics["cross"].aggregator_total_j
        rows.append(
            {
                "case": symbol,
                "aggregator_uj": agg * 1e6,
                "cross_uj": cross * 1e6,
                "cross_over_aggregator": cross / agg if agg > 0 else float("nan"),
            }
        )
    return rows


def headline_summary(
    context: ExperimentContext,
    nodes: tuple = ("130nm", "90nm", "45nm"),
    wireless: str = "model2",
) -> Dict[str, float]:
    """Section 5 headline numbers.

    Returns geometric-mean battery-life improvement factors of the cross-end
    engine over each single-end engine (across cases and process nodes,
    wireless Model 2 — the Fig. 8 aggregation) and the average delay
    reductions at 90 nm (the Fig. 10 aggregation).

    Paper values: 2.4x / 1.6x battery life and 60.8% / 15.6% delay
    reduction over the aggregator / sensor engines respectively.
    """
    import math

    life_ratio_a: List[float] = []
    life_ratio_s: List[float] = []
    for node in nodes:
        for symbol in context.all_cases():
            metrics = context.strategy_metrics(symbol, node, wireless)
            cross = _lifetime_hours(metrics["cross"], symbol)
            life_ratio_a.append(
                cross / _lifetime_hours(metrics["aggregator"], symbol)
            )
            life_ratio_s.append(
                cross / _lifetime_hours(metrics["sensor"], symbol)
            )

    delay_red_a: List[float] = []
    delay_red_s: List[float] = []
    for symbol in context.all_cases():
        metrics = context.strategy_metrics(symbol, "90nm", wireless)
        cross = metrics["cross"].delay_total_s
        delay_red_a.append(1.0 - cross / metrics["aggregator"].delay_total_s)
        delay_red_s.append(1.0 - cross / metrics["sensor"].delay_total_s)

    def gmean(values: List[float]) -> float:
        return math.exp(sum(math.log(v) for v in values) / len(values))

    return {
        "battery_x_vs_aggregator": gmean(life_ratio_a),
        "battery_x_vs_sensor": gmean(life_ratio_s),
        "delay_reduction_vs_aggregator_pct": 100.0 * sum(delay_red_a) / len(delay_red_a),
        "delay_reduction_vs_sensor_pct": 100.0 * sum(delay_red_s) / len(delay_red_s),
    }
