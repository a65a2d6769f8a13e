"""Experiment harness reproducing the paper's evaluation section.

- :mod:`repro.eval.experiments` -- one function per table/figure, returning
  structured rows; the benchmark suite and the examples are thin layers over
  these.
- :mod:`repro.eval.context` -- caching of trained engines so the whole
  evaluation trains each test case once.
- :mod:`repro.eval.tables` -- plain-text rendering of result tables in the
  paper's shape.
- :mod:`repro.eval.resilience` -- availability/latency under seeded fault
  campaigns (unbounded stop-and-wait vs bounded-retry ARQ vs graceful
  degradation) and the wire-integrity comparison (no-CRC vs CRC-16 vs
  CRC + sequence-aware retransmission over real framed payloads).
- :mod:`repro.eval.perf` -- scalar-vs-vectorized performance benchmarks
  and their per-stage speed-up floors.
- :mod:`repro.eval.chaos` -- the adversarial chaos stage: fixed-mix
  baselines, worst-case search, replay-bundle emission and the nightly
  BENCH_chaos regression gate.
- :mod:`repro.eval.supervision` -- the fleet-supervision stage: circuit
  breaker vs flapping link, device quarantine/recovery rounds, the
  interrupt + resume bit-identity self-check and the BENCH_supervision
  gate.
"""

from repro.eval.chaos import (
    chaos_eval,
    chaos_from_context,
    chaos_rows,
    chaos_run_config,
    check_chaos_regression,
    compare_chaos_summaries,
    fixed_mix_scenarios,
    load_chaos_summary,
    write_chaos_summary,
)
from repro.eval.charts import bar_chart
from repro.eval.context import ExperimentContext
from repro.eval.codesign import codesign_rows
from repro.eval.motivation import motivation_rows
from repro.eval.pareto import ParetoPoint, pareto_frontier
from repro.eval.perf import (
    PerfCase,
    check_report,
    collect_perf_report,
    load_perf_report,
    perf_rows,
    write_perf_report,
)
from repro.eval.report import generate_report, write_report
from repro.eval.resilience import (
    arq_model_rows,
    default_campaign,
    integrity_campaign,
    integrity_reports,
    integrity_rows,
    resilience_reports,
    resilience_rows,
)
from repro.eval.supervision import (
    check_supervision_gate,
    flapping_campaign,
    fleet_rows,
    load_supervision_summary,
    supervision_eval,
    supervision_failures,
    supervision_rows,
    write_supervision_summary,
)
from repro.eval.experiments import (
    fig4_rows,
    fig8_rows,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    fig12_rows,
    fig13_rows,
    headline_summary,
    table1_rows,
)
from repro.eval.tables import format_table

__all__ = [
    "ExperimentContext",
    "ParetoPoint",
    "PerfCase",
    "arq_model_rows",
    "bar_chart",
    "chaos_eval",
    "chaos_from_context",
    "chaos_rows",
    "chaos_run_config",
    "check_chaos_regression",
    "check_report",
    "check_supervision_gate",
    "codesign_rows",
    "compare_chaos_summaries",
    "fixed_mix_scenarios",
    "load_chaos_summary",
    "write_chaos_summary",
    "collect_perf_report",
    "default_campaign",
    "load_perf_report",
    "perf_rows",
    "write_perf_report",
    "flapping_campaign",
    "fleet_rows",
    "integrity_campaign",
    "integrity_reports",
    "integrity_rows",
    "load_supervision_summary",
    "motivation_rows",
    "supervision_eval",
    "supervision_failures",
    "supervision_rows",
    "write_supervision_summary",
    "generate_report",
    "pareto_frontier",
    "resilience_reports",
    "resilience_rows",
    "write_report",
    "fig10_rows",
    "fig11_rows",
    "fig12_rows",
    "fig13_rows",
    "fig4_rows",
    "fig8_rows",
    "fig9_rows",
    "format_table",
    "headline_summary",
    "table1_rows",
]
