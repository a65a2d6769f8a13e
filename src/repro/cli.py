"""Command-line interface: regenerate paper artefacts from a shell.

Usage (after ``pip install -e .``)::

    python -m repro table1
    python -m repro figure 8 --segments 240 --draws 40
    python -m repro partition --case E1 --node 90nm --wireless model2
    python -m repro headline --segments 240 --draws 40
    python -m repro resilience --case C1 --events 2000
    python -m repro integrity --case C1 --events 2000
    python -m repro chaos --events 600 --bundle-dir bundles/
    python -m repro chaos --replay bundles/chaos-<id>.json
    python -m repro chaos --checkpoint chaos.ckpt.json --resume
    python -m repro supervision --events 800 --json BENCH_supervision.json
    python -m repro perf --fast --stage generator --json BENCH_perf.json

The figure/headline commands accept ``--segments`` / ``--draws`` to trade
harness scale for runtime (the full-scale defaults match the benchmark
suite and train for a couple of minutes).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.pipeline import TrainingConfig
from repro.errors import XProError
from repro.eval.context import DEFAULT_EVAL_SEGMENTS, ExperimentContext
from repro.eval import experiments
from repro.eval.tables import format_table

#: figure number -> (harness function, title)
_FIGURES = {
    4: (experiments.fig4_rows, "Figure 4: ALU-mode energy per event (pJ)"),
    8: (experiments.fig8_rows, "Figure 8: battery life vs process node"),
    9: (experiments.fig9_rows, "Figure 9: battery life vs wireless model"),
    10: (experiments.fig10_rows, "Figure 10: delay breakdown (ms)"),
    11: (experiments.fig11_rows, "Figure 11: sensor energy breakdown (uJ)"),
    12: (experiments.fig12_rows, "Figure 12: lifetime of four cuts (hours)"),
    13: (experiments.fig13_rows, "Figure 13: aggregator overhead (uJ)"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser with one-line error reporting.

    Unknown subcommands, unknown arguments and malformed option values
    exit with code 2 and a single ``error: ...`` line on stderr — never a
    usage dump spanning half a screen, and never a traceback.
    """

    def error(self, message: str) -> None:  # type: ignore[override]
        """Report one parse error on stderr and exit with code 2."""
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="XPro (ISCA'17) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (dataset attributes)")

    fig = sub.add_parser("figure", help="regenerate one evaluation figure")
    fig.add_argument("number", type=int, choices=sorted(_FIGURES))
    _add_scale_args(fig)

    head = sub.add_parser("headline", help="print the Section 5 headline numbers")
    _add_scale_args(head)

    part = sub.add_parser("partition", help="generate one XPro partition")
    part.add_argument("--case", default="C1", help="Table 1 case symbol")
    part.add_argument("--node", default="90nm", choices=["130nm", "90nm", "45nm"])
    part.add_argument(
        "--wireless", default="model2", choices=["model1", "model2", "model3"]
    )
    part.add_argument(
        "--render", action="store_true", help="render the cell topology with the cut"
    )
    part.add_argument(
        "--save", metavar="FILE", default=None,
        help="write the partition (+ metrics) to a JSON file",
    )
    _add_scale_args(part)

    rep = sub.add_parser(
        "report", help="write the full evaluation report (markdown)"
    )
    rep.add_argument(
        "--output", metavar="FILE", default="xpro_report.md",
        help="target markdown file (default: %(default)s)",
    )
    _add_scale_args(rep)

    val = sub.add_parser(
        "validate",
        help="check the paper's qualitative claims hold at this configuration",
    )
    _add_scale_args(val)

    res = sub.add_parser(
        "resilience",
        help="run the seeded fault campaign and print the resilience report",
    )
    res.add_argument("--case", default="C1", help="Table 1 case symbol")
    res.add_argument("--node", default="90nm", choices=["130nm", "90nm", "45nm"])
    res.add_argument(
        "--wireless", default="model2", choices=["model1", "model2", "model3"]
    )
    res.add_argument(
        "--events", type=int, default=2000,
        help="events to stream through the campaign (default: %(default)s)",
    )
    res.add_argument(
        "--seed", type=int, default=11,
        help="campaign seed (default: %(default)s)",
    )
    _add_scale_args(res)

    integ = sub.add_parser(
        "integrity",
        help="compare wire formats (no-CRC / CRC-16 / CRC+seq) under bit flips",
    )
    integ.add_argument("--case", default="C1", help="Table 1 case symbol")
    integ.add_argument("--node", default="90nm", choices=["130nm", "90nm", "45nm"])
    integ.add_argument(
        "--wireless", default="model2", choices=["model1", "model2", "model3"]
    )
    integ.add_argument(
        "--events", type=int, default=2000,
        help="events to stream through the campaign (default: %(default)s)",
    )
    integ.add_argument(
        "--seed", type=int, default=11,
        help="campaign seed (default: %(default)s)",
    )
    integ.add_argument(
        "--corruption-rate", type=float, default=0.05,
        help="per-frame bit-flip probability (default: %(default)s)",
    )
    _add_scale_args(integ)

    perf = sub.add_parser(
        "perf",
        help="benchmark scalar vs vectorized hot paths against each stage's floor",
    )
    perf.add_argument(
        "--repeats", type=int, default=3,
        help="best-of repeats per timed path (default: %(default)s)",
    )
    perf.add_argument(
        "--fast", action="store_true",
        help="CI smoke scale: single repeat, smaller fleet and stream pool",
    )
    perf.add_argument(
        "--stage", action="append", metavar="NAME", default=None,
        help="run only this stage (repeatable); default runs all stages",
    )
    perf.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the machine-readable report (BENCH_perf.json schema)",
    )

    chaos = sub.add_parser(
        "chaos",
        help=(
            "adversarial search over fault-mix space (strategist/judge) "
            "or bit-exact replay of a chaos bundle"
        ),
    )
    chaos.add_argument("--case", default="C1", help="Table 1 case symbol")
    chaos.add_argument("--node", default="90nm", choices=["130nm", "90nm", "45nm"])
    chaos.add_argument(
        "--wireless", default="model2", choices=["model1", "model2", "model3"]
    )
    chaos.add_argument(
        "--events", type=int, default=600,
        help="events per campaign run (default: %(default)s)",
    )
    chaos.add_argument(
        "--seed", type=int, default=11,
        help="strategist + fixed-mix seed (default: %(default)s)",
    )
    chaos.add_argument(
        "--population", type=int, default=8,
        help="scenarios per generation (default: %(default)s)",
    )
    chaos.add_argument(
        "--generations", type=int, default=4,
        help="search generations (default: %(default)s)",
    )
    chaos.add_argument(
        "--smoke", action="store_true",
        help=(
            "PR-CI scale: tiny training context, 160 events, 4x2 search "
            "(overrides --events/--population/--generations/--segments/--draws)"
        ),
    )
    chaos.add_argument(
        "--bundle-dir", metavar="DIR", default=None,
        help="write a replay bundle per Pareto-worst scenario into DIR",
    )
    chaos.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the machine-readable chaos summary (BENCH_chaos schema)",
    )
    chaos.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="gate the summary against this committed worst-case baseline",
    )
    chaos.add_argument(
        "--threshold", type=float, default=None,
        help="allowed fractional worsening per axis for the gate (default: 0.15)",
    )
    chaos.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help=(
            "snapshot the search into FILE periodically, making long "
            "runs resumable after a crash (see --resume)"
        ),
    )
    chaos.add_argument(
        "--checkpoint-every", type=int, default=8, metavar="K",
        help="evaluations between checkpoint snapshots (default: %(default)s)",
    )
    chaos.add_argument(
        "--resume", action="store_true",
        help=(
            "continue an interrupted search from --checkpoint's last "
            "snapshot (bit-identical to an uninterrupted run)"
        ),
    )
    chaos.add_argument(
        "--replay", metavar="BUNDLE", default=None,
        help=(
            "replay this bundle instead of searching; asserts the report "
            "digest matches bit-for-bit (needs no trained context)"
        ),
    )
    chaos.add_argument(
        "--runner", choices=["fast", "scalar", "both"], default="both",
        help="campaign runner(s) used by --replay (default: %(default)s)",
    )
    _add_scale_args(chaos)

    sup = sub.add_parser(
        "supervision",
        help=(
            "fleet supervision stage: circuit breaker vs flapping link, "
            "device quarantine/recovery, checkpoint-resume self-check"
        ),
    )
    sup.add_argument("--case", default="C1", help="Table 1 case symbol")
    sup.add_argument("--node", default="90nm", choices=["130nm", "90nm", "45nm"])
    sup.add_argument(
        "--wireless", default="model2", choices=["model1", "model2", "model3"]
    )
    sup.add_argument(
        "--events", type=int, default=800,
        help="events per flapping-link campaign (default: %(default)s)",
    )
    sup.add_argument(
        "--seed", type=int, default=11,
        help="campaign + fleet master seed (default: %(default)s)",
    )
    sup.add_argument(
        "--devices", type=int, default=4,
        help="fleet size of the quarantine demo (default: %(default)s)",
    )
    sup.add_argument(
        "--rounds", type=int, default=6,
        help="supervision rounds of the fleet demo (default: %(default)s)",
    )
    sup.add_argument(
        "--round-events", type=int, default=150,
        help="events per device per fleet round (default: %(default)s)",
    )
    sup.add_argument(
        "--smoke", action="store_true",
        help=(
            "PR-CI scale: tiny training context, 240 events, 3-device "
            "fleet (overrides --events/--devices/--round-events/"
            "--segments/--draws)"
        ),
    )
    sup.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the machine-readable summary (BENCH_supervision schema)",
    )
    _add_scale_args(sup)

    insp = sub.add_parser(
        "inspect",
        help="synthesis-style inspection of one case: lint, area, SRAM, gating",
    )
    insp.add_argument("--case", default="C1", help="Table 1 case symbol")
    insp.add_argument("--node", default="90nm", choices=["130nm", "90nm", "45nm"])
    _add_scale_args(insp)

    return parser


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--segments",
        type=int,
        default=DEFAULT_EVAL_SEGMENTS,
        help="per-case dataset subsample (default: %(default)s)",
    )
    parser.add_argument(
        "--draws",
        type=int,
        default=100,
        help="random-subspace draws (default: %(default)s, the paper protocol)",
    )


def _context(args: argparse.Namespace) -> ExperimentContext:
    return ExperimentContext(
        n_segments=args.segments,
        training=TrainingConfig(n_draws=args.draws),
    )


def _cmd_table1(_args: argparse.Namespace) -> str:
    return format_table(experiments.table1_rows(), title="Table 1: dataset attributes")


def _cmd_figure(args: argparse.Namespace) -> str:
    func, title = _FIGURES[args.number]
    rows = func(_context(args))
    return format_table(rows, title=title, float_format="{:.4g}")


def _cmd_headline(args: argparse.Namespace) -> str:
    summary = experiments.headline_summary(_context(args))
    rows = [{"metric": key, "value": value} for key, value in summary.items()]
    return format_table(rows, title="Section 5 headline numbers")


def _cmd_partition(args: argparse.Namespace) -> str:
    ctx = _context(args)
    symbol = args.case.upper()
    generator = ctx.generator(symbol, args.node, args.wireless)
    result = generator.generate()
    topology = ctx.topology(symbol, args.node)
    lines = [
        f"XPro partition for {symbol} at {args.node} / {args.wireless}",
        f"  cells total      : {len(topology)}",
        f"  in-sensor        : {len(result.partition.in_sensor)}",
        f"  sensor energy    : {result.metrics.sensor_total_j * 1e6:.3f} uJ/event",
        f"  end-to-end delay : {result.metrics.delay_total_s * 1e3:.3f} ms",
        f"  delay limit (Eq.4): {result.delay_limit_s * 1e3:.3f} ms",
        "  in-sensor cells  :",
    ]
    lines.extend(f"    {name}" for name in sorted(result.partition.in_sensor))
    if args.render:
        from repro.cells.render import render_topology

        lines.append("")
        lines.append(render_topology(topology, in_sensor=result.partition.in_sensor))
    if args.save:
        from repro.core.serialize import save_partition

        save_partition(args.save, result.partition, result.metrics)
        lines.append(f"\npartition written to {args.save}")
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.eval.report import write_report

    target = write_report(_context(args), args.output)
    return f"evaluation report written to {target}"


def _cmd_validate(args: argparse.Namespace) -> str:
    from repro.eval.validation_suite import summarize, validate_reproduction

    results = validate_reproduction(_context(args))
    return summarize(results)


def _cmd_resilience(args: argparse.Namespace) -> str:
    from repro.eval.resilience import arq_model_rows, resilience_rows

    ctx = _context(args)
    symbol = args.case.upper()
    scenario_table = format_table(
        resilience_rows(
            ctx, symbol, args.node, args.wireless,
            n_events=args.events, seed=args.seed,
        ),
        title=(
            f"Resilience under the seeded fault campaign ({symbol} at "
            f"{args.node} / {args.wireless}, {args.events} events, "
            f"seed {args.seed})"
        ),
        float_format="{:.4g}",
    )
    model_table = format_table(
        arq_model_rows(),
        title="Closed-form ARQ model: legacy 1/(1-p) vs truncated geometric",
        float_format="{:.4g}",
    )
    return scenario_table + "\n\n" + model_table


def _cmd_integrity(args: argparse.Namespace) -> str:
    from repro.eval.resilience import integrity_rows

    ctx = _context(args)
    symbol = args.case.upper()
    return format_table(
        integrity_rows(
            ctx, symbol, args.node, args.wireless,
            n_events=args.events, seed=args.seed,
            corruption_rate=args.corruption_rate,
        ),
        title=(
            f"Wire integrity under bit-flip injection ({symbol} at "
            f"{args.node} / {args.wireless}, {args.events} events, "
            f"corruption rate {args.corruption_rate:g}, seed {args.seed})"
        ),
        float_format="{:.4g}",
    )


def _cmd_chaos(args: argparse.Namespace) -> str:
    from repro.sim.chaos import assert_replay, load_bundle

    if args.replay:
        bundle = load_bundle(args.replay)
        runners = {"fast": (True,), "scalar": (False,), "both": (True, False)}
        lines = []
        for fast in runners[args.runner]:
            result = assert_replay(bundle, fast=fast)
            lines.append(
                f"bundle {result.bundle_id}: {result.runner} runner replayed "
                f"bit-identically (report digest {result.digest[:16]}…)"
            )
        return "\n".join(lines)

    from repro.core.pipeline import TrainingConfig
    from repro.eval.chaos import (
        DEFAULT_CHAOS_THRESHOLD,
        chaos_from_context,
        chaos_rows,
        check_chaos_regression,
        load_chaos_summary,
        write_chaos_summary,
    )

    # Read the baseline first: a bad path fails before the search runs.
    baseline = load_chaos_summary(args.baseline) if args.baseline else None
    if args.smoke:
        ctx = ExperimentContext(
            n_segments=40, training=TrainingConfig(n_draws=8)
        )
        events, population, generations = 160, 4, 2
    else:
        ctx = _context(args)
        events, population, generations = (
            args.events, args.population, args.generations
        )
    summary = chaos_from_context(
        ctx,
        symbol=args.case.upper(),
        node=args.node,
        wireless=args.wireless,
        n_events=events,
        seed=args.seed,
        population=population,
        generations=generations,
        bundle_dir=args.bundle_dir,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    lines = [
        format_table(
            chaos_rows(summary),
            title=(
                f"Adversarial chaos search ({args.case.upper()} at "
                f"{args.node} / {args.wireless}, {events} events, "
                f"{population}x{generations} search, seed {args.seed})"
            ),
            float_format="{:.4g}",
        ),
        "",
        f"strictly worse than every fixed mix: "
        f"{summary['strictly_worse_than_fixed']}",
    ]
    replay = summary.get("replay")
    if replay is not None:
        lines.append(
            f"worst bundle {replay['bundle_id']} replayed bit-identically on "
            f"fast and scalar runners: {replay['bit_identical']}"
        )
    if args.bundle_dir:
        lines.append(
            f"{len(summary['bundle_paths'])} replay bundle(s) written to "
            f"{args.bundle_dir}"
        )
    if args.json:
        target = write_chaos_summary(summary, args.json)
        lines.append(f"chaos summary written to {target}")
    if baseline is not None:
        threshold = (
            args.threshold if args.threshold is not None
            else DEFAULT_CHAOS_THRESHOLD
        )
        check_chaos_regression(summary, baseline, threshold)
        lines.append(f"chaos regression gate OK vs {args.baseline}")
    return "\n".join(lines)


def _cmd_supervision(args: argparse.Namespace) -> str:
    from repro.core.pipeline import TrainingConfig
    from repro.eval.supervision import (
        check_supervision_gate,
        fleet_rows,
        supervision_eval,
        supervision_rows,
        write_supervision_summary,
    )

    if args.smoke:
        ctx = ExperimentContext(
            n_segments=40, training=TrainingConfig(n_draws=8)
        )
        events, devices, round_events = 240, 3, 80
    else:
        ctx = _context(args)
        events, devices, round_events = (
            args.events, args.devices, args.round_events
        )
    summary = supervision_eval(
        ctx,
        symbol=args.case.upper(),
        node=args.node,
        wireless=args.wireless,
        n_events=events,
        seed=args.seed,
        devices=devices,
        rounds=args.rounds,
        round_events=round_events,
    )
    fleet = summary["fleet"]
    resume = summary["resume"]
    lines = [
        format_table(
            supervision_rows(summary),
            title=(
                f"Circuit breaker under the flapping-link mix "
                f"({args.case.upper()} at {args.node} / {args.wireless}, "
                f"{events} events, seed {args.seed})"
            ),
            float_format="{:.4g}",
        ),
        "",
        format_table(
            fleet_rows(summary),
            title=(
                f"Fleet supervision ({devices} devices, "
                f"{args.rounds} rounds of {round_events} events)"
            ),
        ),
        "",
        f"wasted retry radio energy saved by the breaker: "
        f"{summary['wasted_radio_saved_uj']:.4g} uJ",
        f"sick device {fleet['sick_device']} quarantined "
        f"{fleet['sick_quarantines']}x, final state {fleet['sick_final_state']}",
        f"interrupt + resume bit-identical on both runners: "
        f"{resume['bit_identical'] if resume else 'not checked'}",
    ]
    if args.json:
        target = write_supervision_summary(summary, args.json)
        lines.append(f"supervision summary written to {target}")
    check_supervision_gate(summary)
    lines.append("supervision gate OK")
    return "\n".join(lines)


def _cmd_perf(args: argparse.Namespace) -> str:
    from repro.eval.perf import (
        check_report,
        collect_perf_report,
        perf_rows,
        write_perf_report,
    )

    report = collect_perf_report(
        fast=args.fast,
        repeats=args.repeats,
        stages=args.stage,
    )
    lines = [
        format_table(
            perf_rows(report),
            title="Scalar vs vectorized hot paths",
            float_format="{:.4g}",
        )
    ]
    if args.json:
        target = write_perf_report(report, args.json)
        lines.append(f"perf report written to {target}")
    check_report(report)
    return "\n".join(lines)


def _cmd_inspect(args: argparse.Namespace) -> str:
    from repro.cells.validate import lint_topology
    from repro.hw.area import area_report
    from repro.hw.memory import memory_report
    from repro.hw.power_gating import gating_overhead_report

    ctx = _context(args)
    symbol = args.case.upper()
    topology = ctx.topology(symbol, args.node)
    lib = ctx.energy_library(args.node)
    area = area_report(topology, args.node)
    sram = memory_report(topology)
    gating = gating_overhead_report(topology, lib)
    findings = lint_topology(topology)
    lines = [
        f"Synthesis-style inspection: case {symbol} at {args.node}",
        f"  functional cells : {len(topology)}",
        f"  silicon area     : {area.area_mm2:.3f} mm^2 "
        f"({area.gate_equivalents} gate equivalents)",
        f"  sensor SRAM      : {sram.total_kib:.1f} KiB "
        f"(acquisition {sram.acquisition_bytes} B + "
        f"buffers {sram.cell_buffer_bytes} B)",
        f"  gating overhead  : {gating['energy_overhead_pct']:.2f}% of "
        "computation energy",
        f"  lint findings    : {len(findings)}",
    ]
    lines.extend(f"    {f.kind}: {f.subject} — {f.detail}" for f in findings)
    return "\n".join(lines)


_COMMANDS = {
    "chaos": _cmd_chaos,
    "table1": _cmd_table1,
    "figure": _cmd_figure,
    "headline": _cmd_headline,
    "partition": _cmd_partition,
    "perf": _cmd_perf,
    "report": _cmd_report,
    "inspect": _cmd_inspect,
    "integrity": _cmd_integrity,
    "resilience": _cmd_resilience,
    "supervision": _cmd_supervision,
    "validate": _cmd_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (0 ok, 2 on library errors)."""
    args = _build_parser().parse_args(argv)
    try:
        print(_COMMANDS[args.command](args))
    except XProError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
