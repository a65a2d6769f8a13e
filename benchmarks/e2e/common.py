"""Set-up and bookkeeping shared by the end-to-end workloads.

Every workload starts from the same set-up: the six Table-1 datasets (360
segments each) and six classifiers of ten subspace members each (20 draws,
the best half kept).  ``--smoke`` swaps in a tiny protocol so the smoke
test runs each workload in seconds.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.generator import AutomaticXProGenerator, GeneratorResult
from repro.core.pipeline import TrainedAnalyticEngine, TrainingConfig, train_analytic_engine
from repro.eval.context import DEFAULT_EVAL_SEGMENTS
from repro.hw.aggregator import AggregatorCPU
from repro.hw.arq import ARQConfig, ARQOutcome
from repro.hw.energy import EnergyLibrary
from repro.hw.wireless import WirelessLink
from repro.cells.topology import CellTopology
from repro.signals.datasets import CASE_ORDER, BiosignalDataset, load_case

#: Set-up stages, reported as ``setup.<stage>_s`` per-layer metrics.
SETUP_STAGES = ("signals.load", "ml.train", "core.topology", "core.generator", "reference")

#: Uplink retry budget of every simulated radio link in the benchmark.
ARQ = ARQConfig(max_retries=3)

#: Node and radio of the deployed XPro design (the paper's default).
NODE = "90nm"
RADIO = "model2"

#: Ten members per classifier, as the paper protocol's 100 draws with 10%
#: kept give, in a fifth of its training time, so that set-up can run
#: several times per run.  The topologies keep their 65-70 cells.
TRAINING = TrainingConfig(n_draws=20, keep_fraction=0.5)


class Setup:
    """Trained cases plus the wall time spent in each set-up stage.

    Stage boundaries also sample the machine's speed, which calibrates the
    set-up time as a whole (:meth:`SpeedProbe.overall`).
    """

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke
        self.times: Dict[str, float] = {stage: 0.0 for stage in SETUP_STAGES}
        self.datasets: Dict[str, BiosignalDataset] = {}
        self.engines: Dict[str, TrainedAnalyticEngine] = {}
        self.cpu = AggregatorCPU()
        self.probe = SpeedProbe()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        self.probe.poll()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - start
            self.probe.poll()

    def train(self) -> None:
        """Load and train all six cases (the bulk of every set-up)."""
        if self.smoke:
            n_segments, training = 60, TrainingConfig(n_draws=20)
        else:
            n_segments, training = DEFAULT_EVAL_SEGMENTS, TRAINING
        for case in CASE_ORDER:
            with self.stage("signals.load"):
                self.datasets[case] = load_case(case, n_segments)
            with self.stage("ml.train"):
                self.engines[case] = train_analytic_engine(self.datasets[case], training)

    def topology(self, case: str, lib: EnergyLibrary) -> CellTopology:
        with self.stage("core.topology"):
            return self.engines[case].build_topology(lib)

    def xpro_designs(self) -> Dict[str, "Design"]:
        """Per case: the topology and the generator's Eq. 4 XPro cut."""
        lib = EnergyLibrary(NODE)
        link = WirelessLink(RADIO)
        designs = {}
        for case in CASE_ORDER:
            topology = self.topology(case, lib)
            with self.stage("core.generator"):
                generator = AutomaticXProGenerator(topology, lib, link, self.cpu)
                designs[case] = Design(topology, generator, generator.generate())
        return designs


@dataclass
class Design:
    """One case's deployed topology and its XPro partition."""

    topology: CellTopology
    generator: AutomaticXProGenerator
    xpro: GeneratorResult


@dataclass
class Ledger:
    """Operations attempted and failed; a failure never stops the run.

    End-of-run checks (counter balances, reference comparisons) are
    recorded as operations too, so ``failed > 0`` whenever any check
    fails.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def crash(self, what: str, count: int = 1) -> None:
        """Record ``count`` operations lost to the exception being handled."""
        self.record(False, f"{what}: {traceback.format_exc(limit=4)}", count)

    def report(self) -> None:
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)


def arq_outcomes(
    lost: np.ndarray, on_air_s: Sequence[float], arq: ARQConfig = ARQ
) -> List[ARQOutcome]:
    """Run frame ``i`` through ``arq`` against channel slots
    ``[i * tries, (i + 1) * tries)`` of ``lost``.

    Every frame owns a fixed block of ``max_retries + 1`` channel steps,
    used or not (the slot-grid convention of ``repro.sim.fleetsoa``), so
    the channel advances by a known amount per frame.
    """
    tries = arq.max_retries + 1
    return [
        arq.simulate(lambda t, base=i * tries: bool(lost[base + t - 1]), air)
        for i, air in enumerate(on_air_s)
    ]


#: Duration of one :func:`machine_probe` on the reference machine (2-core
#: x86 VM, 2.0 GHz) in its fast phase.
PROBE_REFERENCE_S = 320e-6
#: Wall seconds between two speed samples of a :class:`SpeedProbe`.
PROBE_INTERVAL_S = 0.1
#: Probe kernels per speed sample; the fastest one is the sample.
PROBE_REPEATS = 3
#: An operation is calibrated by the samples taken within this many wall
#: seconds of its midpoint (about ten samples).
PROBE_WINDOW_S = 0.5

_PROBE_MATRIX = np.random.default_rng(0).random((48, 48))


class _ProbePoint:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def machine_probe() -> float:
    """Seconds taken by a fixed kernel of interpreter work and small NumPy calls.

    The kernel belongs to the benchmark, so no change to the program can
    speed it up; it only tracks how fast the machine is running now.  Its
    mix follows the program's hot paths: dict updates, object creation and
    attribute access, and many NumPy calls on small arrays.  On the
    reference machine it slows about one for one with the workloads, where
    a bare integer loop slowed only two thirds as much (in log terms).
    """
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(800):
        key = i % 97
        counts[key] = counts.get(key, 0) + i * i % 7
    acc = 0
    for i in range(300):
        point = _ProbePoint(i, i + 1)
        acc += point.x * point.y
    sorted(counts.items(), key=lambda kv: kv[1])
    for _ in range(4):
        _PROBE_MATRIX @ _PROBE_MATRIX
    for _ in range(20):
        (_PROBE_MATRIX[:, :8] * 2.0).sum(axis=0)
    np.sort(_PROBE_MATRIX.ravel())
    return time.perf_counter() - start


class SpeedProbe:
    """Samples how fast the machine runs, on a schedule of its own.

    Shared hosts run for a second or more at a time up to ~1.4x slower
    (both wall and CPU time inflate), which moves a 10-second run's
    throughput by 20% or more.  A workload calls :meth:`poll` between
    operations; it takes a sample only once ``PROBE_INTERVAL_S`` has passed
    since the last one, so samples spread evenly over the run's wall time
    and are not tied to any one operation.  A sample is the fastest of
    ``PROBE_REPEATS`` kernels.

    :meth:`scales` calibrates an operation by the median of the samples
    within ``PROBE_WINDOW_S`` of it.  That follows the host's slow phases,
    while one slow sample (a preemption, or an operation's after-effects)
    moves no operation, because the median of about ten ignores it.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []
        self._next = 0.0

    def poll(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(min(machine_probe() for _ in range(PROBE_REPEATS)))
            self.times.append(now)
            self._next = now + PROBE_INTERVAL_S

    def _sampled(self) -> np.ndarray:
        if not self.samples:
            self._next = 0.0
            self.poll()
        return np.asarray(self.samples)

    def overall(self) -> float:
        """One factor for everything measured while sampling: the
        reference duration over the median sample."""
        return PROBE_REFERENCE_S / float(np.median(self._sampled()))

    def scales(self, at: Sequence[float]) -> np.ndarray:
        """Per wall time in ``at``, the factor that rescales a duration
        measured then to the reference machine's speed."""
        samples = self._sampled()
        times = np.asarray(self.times)
        at = np.asarray(at, dtype=np.float64)
        lo = np.searchsorted(times, at - PROBE_WINDOW_S, side="left")
        hi = np.searchsorted(times, at + PROBE_WINDOW_S, side="right")
        # A window without samples falls back to the next (or last) one.
        lo = np.minimum(lo, len(samples) - 1)
        hi = np.maximum(hi, lo + 1)
        medians = np.asarray([np.median(samples[a:b]) for a, b in zip(lo, hi)])
        return PROBE_REFERENCE_S / medians


def timings(
    items: int,
    starts_s: Sequence[float],
    durations_s: Sequence[float],
    wall_s: float,
    probe: SpeedProbe,
    blocks: Optional[Sequence[int]] = None,
) -> dict:
    """Throughput and latencies of a run, calibrated and raw.

    Operation ``i`` began at wall time ``starts_s[i]`` and took
    ``durations_s[i]``; it is calibrated by :meth:`SpeedProbe.scales` at
    its midpoint.  With ``blocks`` (a block id per operation; see
    :func:`percentile_ms`) ``latency_p50_ms`` is a median over blocks.
    The ``diagnostic`` figures, which only the traced run reports, are the
    calibrated p99 and the plain wall-clock figures (throughput over the
    whole measured phase), so a gain that only the calibration sees shows
    as a gap between the two.
    """
    raw = np.asarray(durations_s, dtype=np.float64)
    calibrated = raw * probe.scales(np.asarray(starts_s) + raw / 2)
    work = float(calibrated.sum())
    return {
        "throughput_per_s": items / work,
        "latency_p50_ms": percentile_ms(calibrated, 50, blocks),
        "work_s": work,
        "items": items,
        "samples": len(raw),
        "diagnostic": {
            "bench.latency_p99_ms": percentile_ms(calibrated, 99),
            "bench.raw.throughput_per_s": items / wall_s,
            "bench.raw.latency_p50_ms": percentile_ms(raw, 50),
            "bench.raw.latency_p99_ms": percentile_ms(raw, 99),
            "bench.speed_scale": work / float(raw.sum()),
        },
    }


def percentile_ms(
    seconds: Sequence[float], q: float, blocks: Optional[Sequence[int]] = None
) -> float:
    """The ``q``-th percentile of durations given in seconds, in ms.

    With ``blocks`` (a block id per duration), the median over blocks of
    each block's own percentile.
    """
    values = np.asarray(seconds, dtype=np.float64)
    if blocks is None:
        return float(np.percentile(values, q)) * 1e3
    blocks = np.asarray(blocks)
    per_block = [np.percentile(values[blocks == b], q) for b in np.unique(blocks)]
    return float(np.median(per_block)) * 1e3


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was counted."""
    return num / den if den else 0.0
