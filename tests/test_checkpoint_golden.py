"""Golden pins of the checkpoint file format.

Every resumable loop — :meth:`~repro.sim.faults.FaultCampaign.run` and
:func:`~repro.sim.chaos.chaos_search` — writes its snapshot through one
digest-pinned document format.  These tests run each loop at fixed
settings and pin the SHA-256 of the checkpoint file it leaves behind, the
``config_key`` inside it, and :func:`~repro.sim.chaos.report_digest` of
one hand-built report.  A byte that moves in any of them means old
checkpoints no longer resume, so the literals must never be edited to
make a change pass.

Campaigns used to take a ``fast`` / ``scalar`` runner choice, and the
scalar runner wrote checkpoints of its own.  ``tests/data`` keeps two of
those files, byte for byte as that runner wrote them for
:func:`run_flapping` and :func:`run_jittered`; their config key names
the scalar runner, so resuming one must fail with
:class:`~repro.errors.CheckpointError`.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.errors import CheckpointError
from repro.sim.channel import GilbertElliottParams
from repro.sim.chaos import (
    ChaosRunConfig,
    ChaosSearchConfig,
    chaos_search,
    report_digest,
)
from repro.sim.faults import (
    DEGRADED,
    DELIVERED,
    DROPPED,
    BurstLoss,
    DecisionRecord,
    FaultCampaign,
    IntegrityConfig,
    PayloadCorruption,
    ResilienceReport,
    SensorBrownout,
)
from repro.sim.simulator import CrossEndSimulator
from repro.sim.supervise import BreakerConfig, LinkCircuitBreaker

from .test_supervise import ARQ, flapping, simulator, synthetic_metrics


def checkpointer(kind, path, every):
    """A checkpoint store that writes ``kind`` snapshots to ``path``.

    Resolved by name so that the pins below hold the file format fixed
    whichever class writes it: the per-kind checkpointers of
    ``repro.sim.supervise`` or the single ``repro.sim.checkpoint``
    journal.
    """
    try:
        from repro.sim.checkpoint import Checkpointer
    except ImportError:
        import repro.sim.supervise as supervise

        Checkpointer = getattr(supervise, f"{kind.capitalize()}Checkpointer")
    return Checkpointer(path, every=every)


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_key(path):
    return json.loads(path.read_text())["config_key"]


#: ``(file sha256, config_key)`` of each loop's checkpoint at fixed settings.
GOLDEN = {
    "campaign-fast": (
        "6a0aeafb7c51b12bafbef47b7291b955d0fba0b5aa7ca9c9b7b07536a92b989f",
        "194d7e638dfb7b2176fef21a105cbb4bd8af67bb00b80b138e0cafa5c48b52ce",
    ),
    "campaign-jitter-fast": (
        "b9120e28abd9ff30466355de76fb9535e5d7e870163e2bf2c1263685520868a2",
        "5aba8367033b9cc5a5f0c13589237667f45c224c20a8098f28811ff0afe1aade",
    ),
    "chaos": (
        "0bc389ee104b320086b124738dc2763c3a324833bfcf936aa14ab0fcfa70649c",
        "b4b23a5ffeefb80e096ce747e4475f3e938be2d2755f229dd6d6eb4758760f76",
    ),
}

#: ``report_digest`` of :func:`fixed_report`.
GOLDEN_REPORT_DIGEST = (
    "2387393543245ce00adbc47072c99ebade9e901fe8ba9e2c47791f951c5d3c7b"
)


#: Checkpoints the former scalar runner wrote for :func:`run_flapping`
#: and :func:`run_jittered`.
SCALAR_CHECKPOINTS = {
    "campaign": Path(__file__).parent / "data" / "campaign-scalar.json",
    "campaign-jitter": Path(__file__).parent / "data" / "campaign-jitter-scalar.json",
}


def run_flapping(path, resume=False):
    """``flapping()`` for 120 events with policy, cache and breaker state."""
    return flapping().run(
        simulator(),
        120,
        arq=ARQ,
        policy=GracefulDegradationPolicy(outage_threshold=3, recovery_hysteresis=8),
        fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7),
        cache=LastKnownGoodCache(),
        breaker=LinkCircuitBreaker(BreakerConfig(failure_threshold=3)),
        checkpoint=checkpointer("campaign", path, 50),
        resume=resume,
    )


def run_jittered(path, resume=False):
    """A jittered byte-level campaign: payload, jitter and loss RNG state."""
    campaign = FaultCampaign(
        [
            BurstLoss(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
            PayloadCorruption(0.08, mode="bitflip"),
            SensorBrownout(start_event=40, n_events=5),
        ],
        seed=9,
    )
    return campaign.run(
        CrossEndSimulator(
            synthetic_metrics(), period_s=0.25, jitter_sigma=0.3, seed=3
        ),
        120,
        arq=ARQ,
        cache=LastKnownGoodCache(),
        integrity=IntegrityConfig(values_per_payload=8),
        checkpoint=checkpointer("campaign", path, 50),
        resume=resume,
    )


def fixed_report():
    """A hand-built report touching every record and counter field."""
    return ResilienceReport(
        records=[
            DecisionRecord(0, DELIVERED, 1, 0.0123, False, 0, False),
            DecisionRecord(1, DROPPED, 4, float("nan"), False, 0, False),
            DecisionRecord(2, DEGRADED, 2, 0.5, True, 3, False),
            DecisionRecord(3, DELIVERED, 1, 1e-300, True, 0, True),
        ],
        sensor_energy_j=1.5e-5,
        aggregator_energy_j=2.25e-6,
        retry_energy_j=1e-7 / 3,
        retransmissions=4,
        fallback_events=2,
        deadline_misses=1,
        frames_sent=9,
        frames_corrupted=2,
        corruptions_detected=1,
        corrupted_deliveries=1,
        integrity_discards=0,
    )


def check_campaign(tmp_path, runner, name, run):
    """``"fast"``: ``run`` writes the pinned file.  ``"scalar"``: resuming
    the former scalar runner's file of the same run is refused."""
    path = tmp_path / "campaign.json"
    if runner == "fast":
        run(path)
        assert (file_sha256(path), config_key(path)) == GOLDEN[f"{name}-fast"]
    else:
        shutil.copyfile(SCALAR_CHECKPOINTS[name], path)
        with pytest.raises(CheckpointError, match="different run"):
            run(path, resume=True)


RUNNERS = pytest.mark.parametrize("runner", ["fast", "scalar"])


class TestCheckpointGolden:
    @RUNNERS
    def test_campaign(self, tmp_path, runner):
        check_campaign(tmp_path, runner, "campaign", run_flapping)

    @RUNNERS
    def test_jittered_campaign(self, tmp_path, runner):
        check_campaign(tmp_path, runner, "campaign-jitter", run_jittered)

    def test_chaos(self, tmp_path):
        path = tmp_path / "chaos.json"
        chaos_search(
            ChaosRunConfig(
                metrics=synthetic_metrics(),
                fallback_metrics=synthetic_metrics(
                    sensor_tx_j=2e-7, crossing_bits_up=16
                ),
                period_s=0.25,
                sim_seed=7,
            ),
            search=ChaosSearchConfig(population=3, generations=1, seed=1),
            n_events=60,
            checkpoint=checkpointer("chaos", path, 2),
        )
        assert (file_sha256(path), config_key(path)) == GOLDEN["chaos"]

    def test_report_digest(self):
        assert report_digest(fixed_report()) == GOLDEN_REPORT_DIGEST
