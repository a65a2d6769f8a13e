"""Golden pins of the checkpoint file format.

Every resumable loop — :meth:`~repro.sim.faults.FaultCampaign.run` on
both runners, :func:`~repro.sim.parallel.sweep` and
:func:`~repro.sim.chaos.chaos_search` — writes its snapshot through one
digest-pinned document format.  These tests run each loop at fixed
settings and pin the SHA-256 of the checkpoint file it leaves behind, the
``config_key`` inside it, and :func:`~repro.sim.chaos.report_digest` of
one hand-built report.  A byte that moves in any of them means old
checkpoints no longer resume, so the literals must never be edited to
make a change pass.
"""

import hashlib
import json

import pytest

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
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
from repro.sim.parallel import ParallelConfig, sweep
from repro.sim.simulator import CrossEndSimulator
from repro.sim.supervise import BreakerConfig, LinkCircuitBreaker

from .test_supervise import ARQ, _square, flapping, simulator, synthetic_metrics


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
    "campaign-scalar": (
        "2fd265da28abfe3465d62bf625fefd54b10aabb55f60b74f0f50212ae4dddedc",
        "9bae5c5ddda4fc9894db2a7444a39c8ad725201347226f86e91086e1d9d063ca",
    ),
    "campaign-jitter-fast": (
        "b9120e28abd9ff30466355de76fb9535e5d7e870163e2bf2c1263685520868a2",
        "5aba8367033b9cc5a5f0c13589237667f45c224c20a8098f28811ff0afe1aade",
    ),
    "campaign-jitter-scalar": (
        "e7c567635453a297bd322053a82437fadb6b21022bc8748c526debfe60156a75",
        "eb2cbe56a638155000a6bf144d37c769aa7894a56abdd74e441dbc28fe32fada",
    ),
    "sweep": (
        "be3286761961c98c6651d9c5f073fcc58c8e4ef4192b973702a5c1eed650e624",
        "faabf924c1eddc2379f3410ae6f464e9605efa132aabfd4075aab0619649dc62",
    ),
    "chaos": (
        "d525e00c82e89892bbe44e5d6f2d7a5d64e68a9254cfdab3ca757d07d1cf6fbc",
        "a2c380e47a6a7e51f925c83842a004e05964d211cc436294dfa46aa4318b3358",
    ),
}

#: ``report_digest`` of :func:`fixed_report`.
GOLDEN_REPORT_DIGEST = (
    "2387393543245ce00adbc47072c99ebade9e901fe8ba9e2c47791f951c5d3c7b"
)


def run_flapping(path, fast):
    """``flapping()`` for 120 events with policy, cache and breaker state."""
    return flapping().run(
        simulator(),
        120,
        arq=ARQ,
        policy=GracefulDegradationPolicy(outage_threshold=3, recovery_hysteresis=8),
        fallback_metrics=synthetic_metrics(sensor_tx_j=2e-7),
        cache=LastKnownGoodCache(),
        breaker=LinkCircuitBreaker(BreakerConfig(failure_threshold=3)),
        fast=fast,
        checkpoint=checkpointer("campaign", path, 50),
    )


def run_jittered(path, fast):
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
        fast=fast,
        checkpoint=checkpointer("campaign", path, 50),
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


class TestCheckpointGolden:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
    def test_campaign(self, tmp_path, fast):
        path = tmp_path / "campaign.json"
        run_flapping(path, fast)
        name = "campaign-fast" if fast else "campaign-scalar"
        assert (file_sha256(path), config_key(path)) == GOLDEN[name]

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
    def test_jittered_campaign(self, tmp_path, fast):
        path = tmp_path / "campaign.json"
        run_jittered(path, fast)
        name = "campaign-jitter-fast" if fast else "campaign-jitter-scalar"
        assert (file_sha256(path), config_key(path)) == GOLDEN[name]

    def test_sweep(self, tmp_path):
        path = tmp_path / "sweep.json"
        sweep(
            _square,
            {"x": [0, 1, 2], "y": [1, 2]},
            config=ParallelConfig(backend="serial"),
            checkpoint=checkpointer("sweep", path, 2),
        )
        assert (file_sha256(path), config_key(path)) == GOLDEN["sweep"]

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
            search=ChaosSearchConfig(population=3, generations=1, seed=1, fast=True),
            n_events=60,
            checkpoint=checkpointer("chaos", path, 2),
        )
        assert (file_sha256(path), config_key(path)) == GOLDEN["chaos"]

    def test_report_digest(self):
        assert report_digest(fixed_report()) == GOLDEN_REPORT_DIGEST
