"""End-to-end benchmark of the XPro reproduction.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload crossend --seed 1 --seconds 10 --trace 0

Workloads: ``crossend``, ``gateway``, ``design_sweep``, ``fleet`` (see
README.md beside this file).  The run trains the six Table-1 classifiers
and builds the workload's inputs from ``--seed``, three times over (the
median set-up time is reported), measures for ``--seconds``,
checks every output against a reference and prints one JSON object as the
last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the workload runs a second time with spans recorded and the metrics are
the per-layer ones (spans are written to ``--trace-out``).  ``--smoke``
shrinks training and the workloads so a run takes seconds.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

WORKLOADS = ("crossend", "gateway", "design_sweep", "fleet")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics (name -> unit), measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "items/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "sensor_uj_per_event": "uJ",
    "modelled_delay_ms": "ms",
    "air_bytes_per_event": "B",
    "delivered_fraction": "fraction",
}

#: Per-layer metrics (name -> unit) from the traced run; a layer the
#: workload does not exercise reads 0.
PER_LAYER = {
    "setup.signals.load_s": "s",
    "setup.ml.train_s": "s",
    "setup.core.topology_s": "s",
    "setup.core.generator_s": "s",
    "setup.reference_s": "s",
    "core.engine.busy_s": "s",
    "core.engine.share": "fraction",
    "core.engine.us_per_segment": "us",
    "core.engine.us_per_segment.sensor": "us",
    "core.engine.us_per_segment.aggregator": "us",
    "core.engine.us_per_segment.xpro": "us",
    "hw.framing.encode.busy_s": "s",
    "hw.framing.encode.share": "fraction",
    "hw.framing.decode.busy_s": "s",
    "hw.framing.decode.share": "fraction",
    "hw.framing.frames_per_segment": "count",
    "sim.channel.busy_s": "s",
    "hw.arq.busy_s": "s",
    "hw.arq.tries_per_frame": "count",
    "hw.arq.drop_ratio": "fraction",
    "bench.glue.share": "fraction",
    "stream.ingest.busy_s": "s",
    "stream.ingest.share": "fraction",
    "stream.ingest.us_per_frame": "us",
    "stream.ingest.frames_corrupt": "count",
    "stream.ingest.sequence_gaps": "count",
    "stream.ingest.frames_missing": "count",
    "stream.engine.tick.self_s": "s",
    "stream.engine.tick.share": "fraction",
    "stream.engine.windows": "count",
    "stream.engine.skipped_windows": "count",
    "core.pipeline.predict_batch.busy_s": "s",
    "core.pipeline.predict_batch.share": "fraction",
    "core.pipeline.predict_batch.us_per_window": "us",
    "core.pipeline.predict_batch.windows_per_call": "count",
    "loadgen.utilization": "fraction",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.max_backlog_ticks": "count",
    "core.generator.busy_s": "s",
    "core.generator.share": "fraction",
    "core.generator.candidates_per_call": "count",
    "core.generator.ms_per_call.cold": "ms",
    "core.generator.ms_per_call.warm": "ms",
    "core.generator.cross_cut_fraction": "fraction",
    "sim.evaluate.cache_hit_ratio": "fraction",
    "graph.stgraph.warm_solves": "count",
    "graph.stgraph.cold_solves": "count",
    "graph.stgraph.paths_per_solve": "count",
    "sim.parallel.fleet_soa_rounds.busy_s": "s",
    "sim.parallel.fleet_soa_rounds.share": "fraction",
    "sim.fleetsoa.us_per_device_round": "us",
    "sim.fleetsoa.attempts_per_offered": "count",
    "sim.supervise.quarantines": "count",
    "sim.supervise.est_share": "fraction",
    "sim.parallel.efficiency": "fraction",
    "bench.latency_p99_ms": "ms",
    "bench.raw.setup_s": "s",
    "bench.raw.throughput_per_s": "items/s",
    "bench.raw.latency_p50_ms": "ms",
    "bench.raw.latency_p99_ms": "ms",
    "bench.speed_scale": "ratio",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace_out is None:
        args.trace_out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    return args


def end_to_end(setup_s, run):
    from common import peak_rss_mb

    return {
        "setup_s": setup_s,
        "throughput_per_s": run["throughput_per_s"],
        "latency_p50_ms": run["latency_p50_ms"],
        "peak_rss_mb": peak_rss_mb(),
        **run["modelled"],
    }


def per_layer(stages, diagnostic, plain, traced, tracer):
    unknown = set(traced["layers"]) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"workload reported undeclared per-layer metrics {sorted(unknown)}")
    values = dict.fromkeys(PER_LAYER, 0.0)
    for stage, seconds in stages.items():
        values[f"setup.{stage}_s"] = seconds
    values.update(traced["layers"])
    values.update(diagnostic)
    base = plain["work_s"] / plain["items"]
    values["trace.overhead_pct"] = (traced["work_s"] / traced["items"] - base) / base * 100
    values["trace.spans"] = len(tracer.spans)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the only parallelism measured is the fleet's two
    # worker processes, and a shared two-core box stays steadier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    from common import Ledger, Setup
    from tracing import Tracer

    workload = importlib.import_module(args.workload)
    # Set-up runs SETUPS times and reports the median.  Each time counts
    # the start-up (imports) before the first one too.
    startup_s = time.perf_counter() - T_START
    raw_times, calibrated_times, stage_times = [], [], []
    for _ in range(SETUPS):
        begin = time.perf_counter()
        su = Setup(args.smoke)
        su.train()
        state = workload.setup(su, args.seed, args.seconds)
        raw_times.append(startup_s + time.perf_counter() - begin)
        calibrated_times.append(raw_times[-1] * su.probe.overall())
        stage_times.append(su.times)
    setup_s = statistics.median(calibrated_times)
    stages = {
        stage: statistics.median(times[stage] for times in stage_times)
        for stage in stage_times[0]
    }

    ledger = Ledger()
    plain = workload.run(state, args.seconds, Tracer(False), ledger)
    # The untraced run's figures that only the traced run reports.
    diagnostic = {"bench.raw.setup_s": statistics.median(raw_times), **plain["diagnostic"]}
    if args.trace:
        tracer = Tracer(True)
        start = time.perf_counter()
        traced = workload.run(state, args.seconds, tracer, ledger)
        wall_s = time.perf_counter() - start
        values = per_layer(stages, diagnostic, plain, traced, tracer)
        units = PER_LAYER
        tracer.dump(
            args.trace_out,
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "smoke": args.smoke, "wall_s": wall_s},
        )
    else:
        values = end_to_end(setup_s, plain)
        units = END_TO_END
    for name, value in values.items():
        if not math.isfinite(value):
            ledger.record(False, f"{name} is not finite")
            values[name] = 0.0
    ledger.report()

    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    if not args.trace:
        for name, value in diagnostic.items():
            print(f"{name:48s} {value:14.6g} {PER_LAYER[name]}")
    print(f"{'latency samples':48s} {plain['samples']:14d}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
