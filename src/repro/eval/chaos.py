"""Chaos evaluation stage: adversarial search wired into the harness.

:mod:`repro.sim.chaos` is deliberately context-free (a replay bundle must
re-run without trained classifiers); this module binds it to the
experiment harness:

- :func:`chaos_run_config` derives the fixed harness configuration of a
  chaos run from a trained :class:`~repro.eval.context.ExperimentContext`
  (partition metrics of the case under test, in-sensor fallback metrics,
  event period), mirroring the setup of :mod:`repro.eval.resilience`;
- :func:`fixed_mix_scenarios` expresses the fixed seeded mixes of the
  ``resilience`` and ``integrity`` evals as points of the chaos scenario
  space, so the judge can compare the strategist's finds against them
  under one driver — apples to apples;
- :func:`chaos_eval` runs the full orchestration (baselines, search,
  Pareto frontier, bundle emission, replay self-verification of the
  worst bundle) and returns one JSON-safe summary document;
- :func:`check_chaos_regression` is the nightly gate: it fails when the
  fresh search finds a worst case materially worse than the committed
  baseline (``benchmarks/results/BENCH_chaos_baseline.json``) allows.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ChaosRegressionError, ConfigurationError
from repro.eval.context import ExperimentContext, case_period_s
from repro.eval.jsonio import read_json_document, write_json_document
from repro.graph.cuts import sensor_cut
from repro.hw.framing import FramingConfig
from repro.hw.wireless import WirelessLink
from repro.sim.chaos import (
    PARETO_AXES,
    ChaosBounds,
    ChaosDriver,
    ChaosJudge,
    ChaosOutcome,
    ChaosRunConfig,
    ChaosScenario,
    ChaosSearchConfig,
    assert_replay,
    build_bundle,
    chaos_search,
    report_digest,
    save_bundle,
)
from repro.sim.checkpoint import Checkpointer
from repro.sim.evaluate import evaluate_partition
from repro.sim.faults import IntegrityConfig

#: Schema marker of the chaos summary document (and committed baseline).
SUMMARY_SCHEMA = "xpro-chaos-summary-v1"

#: Default allowed fractional worsening per axis for the regression gate.
DEFAULT_CHAOS_THRESHOLD = 0.15

#: Absolute slack added on top of the fractional threshold (axes are
#: mostly small fractions; a pure ratio gate would be noise-brittle near 0).
_ABS_SLACK = 0.02


def chaos_run_config(
    context: ExperimentContext,
    symbol: str = "C1",
    node: str = "90nm",
    wireless: str = "model2",
    sim_seed: int = 11,
    crc: bool = False,
    retransmit_on_corrupt: bool = False,
) -> ChaosRunConfig:
    """The fixed chaos harness of one case, derived from a trained context.

    The partition metrics are evaluated with a framed link (header bits
    charged to radio energy and link delay, exactly as the integrity eval
    does), and the in-sensor extreme cut supplies the degrade-fallback
    metrics.  ``crc`` defaults to False — the adversarial wire format in
    which bit flips can reach the decision layer silently, giving the
    judge's silent-corruption axis real signal.
    """
    integrity = IntegrityConfig(
        framing=FramingConfig(crc=crc),
        retransmit_on_corrupt=retransmit_on_corrupt,
    )
    topology = context.topology(symbol, node)
    lib = context.energy_library(node)
    cpu = context.cpu
    link = WirelessLink(wireless, framing=integrity.framing)
    in_sensor = (
        context.generator(symbol, node, wireless).generate().partition.in_sensor
    )
    primary = evaluate_partition(topology, in_sensor, lib, link, cpu)
    fallback = evaluate_partition(topology, sensor_cut(topology), lib, link, cpu)
    return ChaosRunConfig(
        metrics=primary,
        fallback_metrics=fallback,
        period_s=case_period_s(symbol),
        sim_seed=sim_seed,
        integrity=integrity,
    )


def fixed_mix_scenarios(
    n_events: int, seed: int = 11
) -> Dict[str, ChaosScenario]:
    """The fixed seeded eval mixes as points of the chaos scenario space.

    ``resilience`` mirrors :func:`repro.eval.resilience.default_campaign`
    (outage + burst + erasure corruption + brownout + stall, scaled to the
    run length); ``integrity`` mirrors
    :func:`repro.eval.resilience.integrity_campaign` (burst + byte-level
    bit flips).  These are the judged baselines the strategist must beat.
    """
    return {
        "resilience": ChaosScenario(
            seed=seed,
            n_events=n_events,
            burst_p_gb=0.02,
            burst_p_bg=0.10,
            burst_loss_good=0.01,
            burst_loss_bad=0.6,
            erasure_rate=0.01,
            bitflip_rate=0.0,
            outage_start=n_events // 4,
            outage_len=max(10, n_events // 20),
            brownout_start=(n_events * 3) // 5,
            brownout_len=max(3, n_events // 200),
            stall_start=(n_events * 4) // 5,
            stall_len=max(5, n_events // 50),
            stall_ms=2.0,
        ),
        "integrity": ChaosScenario(
            seed=seed,
            n_events=n_events,
            burst_p_gb=0.01,
            burst_p_bg=0.20,
            burst_loss_good=0.005,
            burst_loss_bad=0.5,
            erasure_rate=0.0,
            bitflip_rate=0.05,
            max_bit_flips=4,
        ),
    }


def _outcome_row(label: str, outcome: ChaosOutcome) -> Dict[str, Any]:
    """One outcome rendered as a JSON-safe summary row."""
    score = outcome.score
    return {
        "label": label,
        "scenario_key": outcome.scenario.key,
        "unavailability_pct": 100.0 * score.unavailability,
        "silent_corruption_pct": 100.0 * score.silent_corruption,
        "latency_tail_x": score.latency_tail,
        "battery_overhead_pct": 100.0 * score.battery_overhead,
        "degraded_pct": 100.0 * score.degraded_rate,
        "badness": score.badness,
        "generation": outcome.generation,
    }


def chaos_eval(
    run_config: ChaosRunConfig,
    n_events: int = 600,
    search: Optional[ChaosSearchConfig] = None,
    bounds: Optional[ChaosBounds] = None,
    seed: int = 11,
    bundle_dir: Optional[str | Path] = None,
    checkpoint: Optional[Checkpointer] = None,
    resume: bool = False,
) -> Dict[str, Any]:
    """Run baselines + adversarial search and summarise the outcome.

    Args:
        run_config: The fixed harness (see :func:`chaos_run_config`).
        n_events: Events per campaign run (search and baselines alike).
        search: Orchestrator shape; defaults to
            :class:`~repro.sim.chaos.ChaosSearchConfig` with its seed
            replaced by ``seed``.
        bounds: Strategist parameter grid (defaults to
            :class:`~repro.sim.chaos.ChaosBounds` at ``n_events``).
        seed: Strategist seed and fixed-mix campaign seed.
        bundle_dir: When given, every Pareto-worst scenario is written
            there as a replay bundle (``chaos-<id>.json``).  The worst
            scenario's bundle is always replayed once and must reproduce
            its report digest (:func:`~repro.sim.chaos.assert_replay`);
            the summary's ``replay`` block records the outcome.
        checkpoint: Optional
            :class:`~repro.sim.checkpoint.Checkpointer` forwarded to
            :func:`~repro.sim.chaos.chaos_search`, making the long search
            phase resumable after a crash or interruption.
        resume: Resume the search from ``checkpoint``'s last snapshot
            (the fixed-mix baselines are cheap and always re-run).

    Returns:
        A JSON-safe summary document (:data:`SUMMARY_SCHEMA`).
    """
    search = search or ChaosSearchConfig(seed=seed)
    judge = ChaosJudge(
        period_s=run_config.period_s,
        clean_sensor_j=run_config.metrics.sensor_total_j,
    )
    driver = ChaosDriver(run_config)

    fixed_rows: List[Dict[str, Any]] = []
    fixed_outcomes: Dict[str, ChaosOutcome] = {}
    for label, scenario in fixed_mix_scenarios(n_events, seed=seed).items():
        report = driver.run(scenario)
        outcome = ChaosOutcome(
            scenario=scenario,
            score=judge.score(report),
            report=report,
            report_digest=report_digest(report),
            generation=-1,
        )
        fixed_outcomes[label] = outcome
        fixed_rows.append(_outcome_row(f"fixed:{label}", outcome))

    result = chaos_search(
        run_config,
        search=search,
        bounds=bounds,
        n_events=n_events,
        judge=judge,
        checkpoint=checkpoint,
        resume=resume,
    )
    worst = result.worst

    # Acceptance: the strategist must find a mix strictly worse on
    # unavailability or silent corruption than EVERY fixed seeded mix.
    worst_unavail = worst.score.unavailability
    worst_silent = worst.score.silent_corruption
    strictly_worse = all(
        worst_unavail > o.score.unavailability for o in fixed_outcomes.values()
    ) or all(
        worst_silent > o.score.silent_corruption for o in fixed_outcomes.values()
    )

    bundles: List[Dict[str, Any]] = []
    bundle_paths: List[str] = []
    for outcome in result.frontier:
        if outcome.report is None:
            continue
        bundle = build_bundle(
            outcome.scenario, run_config, outcome.report, outcome.score
        )
        bundles.append(bundle)
        if bundle_dir is not None:
            bundle_paths.append(str(save_bundle(bundle, bundle_dir)))

    replay_block: Optional[Dict[str, Any]] = None
    if worst.report is not None:
        replayed = assert_replay(
            build_bundle(worst.scenario, run_config, worst.report, worst.score)
        )
        replay_block = {
            "bundle_id": replayed.bundle_id,
            "report_digest": replayed.digest,
            "bit_identical": replayed.matches,
        }

    axes_max = {
        axis: max(getattr(o.score, axis) for o in result.outcomes)
        for axis in PARETO_AXES
    }
    return {
        "schema": SUMMARY_SCHEMA,
        "config": {
            "n_events": n_events,
            "seed": seed,
            "population": search.population,
            "generations": search.generations,
            "evaluations": result.evaluations,
        },
        "fixed": fixed_rows,
        "worst": {
            **_outcome_row("worst", worst),
            "scenario": worst.scenario.to_dict(),
            "report_digest": worst.report_digest,
        },
        "frontier": [
            _outcome_row("frontier", o) for o in result.frontier
        ],
        "axes_max": axes_max,
        "strictly_worse_than_fixed": strictly_worse,
        "bundles": [b["bundle_id"] for b in bundles],
        "bundle_paths": bundle_paths,
        "replay": replay_block,
    }


def chaos_from_context(
    context: ExperimentContext,
    symbol: str = "C1",
    node: str = "90nm",
    wireless: str = "model2",
    n_events: int = 600,
    seed: int = 11,
    population: int = 8,
    generations: int = 4,
    bundle_dir: Optional[str | Path] = None,
    checkpoint_path: Optional[str | Path] = None,
    checkpoint_every: int = 8,
    resume: bool = False,
) -> Dict[str, Any]:
    """End-to-end chaos stage from a trained context (the CLI entry).

    Pass ``checkpoint_path`` to snapshot the search every
    ``checkpoint_every`` evaluations; ``resume=True`` continues an
    interrupted search from that file (bit-identical result).
    """
    run_config = chaos_run_config(context, symbol, node, wireless, sim_seed=seed)
    search = ChaosSearchConfig(
        population=population, generations=generations, seed=seed
    )
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = Checkpointer(checkpoint_path, every=checkpoint_every)
    return chaos_eval(
        run_config,
        n_events=n_events,
        search=search,
        seed=seed,
        bundle_dir=bundle_dir,
        checkpoint=checkpoint,
        resume=resume,
    )


def chaos_rows(summary: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Result rows of one summary for :func:`repro.eval.tables.format_table`."""
    rows = [dict(row) for row in summary["fixed"]]
    rows.append(
        {k: v for k, v in summary["worst"].items() if k not in ("scenario",)}
    )
    rows.extend(dict(row) for row in summary["frontier"])
    keep = (
        "label",
        "scenario_key",
        "unavailability_pct",
        "silent_corruption_pct",
        "latency_tail_x",
        "battery_overhead_pct",
        "degraded_pct",
        "badness",
    )
    return [{k: row[k] for k in keep if k in row} for row in rows]


def write_chaos_summary(summary: Dict[str, Any], path: str | Path) -> Path:
    """Serialise a chaos summary to pretty-printed JSON."""
    return write_json_document(summary, path)


def load_chaos_summary(path: str | Path) -> Dict[str, Any]:
    """Load a chaos summary, validating the schema marker."""
    return read_json_document(path, SUMMARY_SCHEMA, "chaos summary")


def compare_chaos_summaries(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_CHAOS_THRESHOLD,
) -> List[str]:
    """The regression gate: fresh worst-case axes vs the committed baseline.

    A regression is an axis maximum (or the scalar worst badness) that
    exceeds the baseline's by more than ``threshold`` fractionally plus a
    small absolute slack — i.e. the system now degrades materially worse
    under adversarial search than the committed worst case records.
    Improvements (fresh below baseline) never fail the gate.

    Returns:
        Human-readable failure lines; empty when the gate passes.
    """
    if threshold < 0:
        raise ConfigurationError("threshold must be >= 0")
    failures: List[str] = []
    base_axes = baseline.get("axes_max", {})
    fresh_axes = fresh.get("axes_max", {})
    for axis in PARETO_AXES:
        if axis not in base_axes or axis not in fresh_axes:
            continue
        allowed = base_axes[axis] * (1.0 + threshold) + _ABS_SLACK
        if fresh_axes[axis] > allowed:
            failures.append(
                f"{axis}: fresh worst {fresh_axes[axis]:.4f} exceeds "
                f"baseline {base_axes[axis]:.4f} (allowed {allowed:.4f})"
            )
    base_bad = baseline.get("worst", {}).get("badness")
    fresh_bad = fresh.get("worst", {}).get("badness")
    if base_bad is not None and fresh_bad is not None:
        allowed = base_bad * (1.0 + threshold) + _ABS_SLACK
        if fresh_bad > allowed:
            failures.append(
                f"badness: fresh worst {fresh_bad:.4f} exceeds baseline "
                f"{base_bad:.4f} (allowed {allowed:.4f})"
            )
    replay = fresh.get("replay")
    if replay is not None and not replay.get("bit_identical", False):
        failures.append(
            f"replay: the worst bundle {replay.get('bundle_id')} did not "
            "replay bit-identically"
        )
    return failures


def check_chaos_regression(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_CHAOS_THRESHOLD,
) -> None:
    """Raise :class:`ChaosRegressionError` when the gate fails."""
    failures = compare_chaos_summaries(fresh, baseline, threshold)
    if failures:
        raise ChaosRegressionError(
            "chaos regression gate failed:\n  " + "\n  ".join(failures)
        )
