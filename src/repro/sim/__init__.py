"""Cross-end system simulation.

- :mod:`repro.sim.evaluate` -- static per-event evaluation of a partition:
  sensor energy (Eq. 1-3), delay breakdown, aggregator-side overhead.
- :mod:`repro.sim.lifetime` -- battery lifetime from per-event energy and
  the event rate (Polymer Li-Ion model).
- :mod:`repro.sim.simulator` -- a discrete-event simulator streaming
  segments through sensor, link and aggregator resources, used to validate
  the static model and to detect real-time overruns.
- :mod:`repro.sim.parallel` -- fleet-scale parallel fan-out of independent
  tasks (subspace draws, design-space sweeps, fleet and stream shards)
  across worker processes, bit-identical to serial execution.
- :mod:`repro.sim.faults` -- composable fault models (outages, burst loss,
  corruption, brownouts, stalls) and seeded fault-injection campaigns with
  bounded-retry ARQ, graceful degradation and an optional byte-level data
  plane (real frames, real bit flips, CRC-verified delivery).
- :mod:`repro.sim.chaos` -- adversarial search over fault-mix space
  (strategist -> drivers -> judge -> orchestrator) with Pareto-worst
  tracking and bit-exact JSON replay bundles.
- :mod:`repro.sim.supervise` -- the fleet-supervision tier: per-device
  health state machines with quarantine/recovery (and the same machine
  as integer columns for the struct-of-arrays fleet) and deterministic
  link circuit breakers.
- :mod:`repro.sim.checkpoint` -- the one checkpoint journal: crash-safe,
  digest-pinned checkpoint/resume for campaigns, sweeps and chaos
  searches, plus the canonical-JSON digests and bit-exact float and RNG
  codecs they share.
"""

from repro.sim.channel import (
    GilbertElliottChannel,
    GilbertElliottParams,
    burst_lengths,
    ge_outcome_block,
)
from repro.sim.chaos import (
    ChaosBounds,
    ChaosDriver,
    ChaosJudge,
    ChaosOutcome,
    ChaosRunConfig,
    ChaosScenario,
    ChaosScore,
    ChaosSearchConfig,
    ChaosSearchResult,
    ChaosStrategist,
    ChaosWeights,
    ReplayResult,
    assert_replay,
    build_bundle,
    chaos_search,
    load_bundle,
    pareto_worst,
    replay_bundle,
    report_digest,
    save_bundle,
)
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpointer,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
    stable_digest,
)
from repro.sim.discharge import DischargeTrace, simulate_discharge
from repro.sim.evaluate import (
    PartitionEvaluationCache,
    PartitionMetrics,
    evaluate_partition,
    metrics_identical,
)
from repro.sim.faults import (
    AggregatorStall,
    BurstLoss,
    DecisionRecord,
    FaultCampaign,
    FaultModel,
    IntegrityConfig,
    LinkOutage,
    PayloadCorruption,
    ResilienceReport,
    SensorBrownout,
    fault_signature,
)
from repro.sim.fleetsoa import (
    FleetConfig,
    FleetResult,
    FleetSpec,
    concat_fleet_results,
    fleet_results_identical,
    simulate_fleet_scalar,
    simulate_fleet_soa,
)
from repro.sim.lifetime import battery_lifetime_hours, event_period_s
from repro.sim.multinode import BSNNode, BSNReport, MultiNodeBSN
from repro.sim.parallel import (
    ParallelConfig,
    derive_seeds,
    fleet_soa_rounds,
    parallel_map,
    shard_map,
    stream_soa_windows,
    sweep,
)
from repro.sim.simulator import CrossEndSimulator, SimulationReport
from repro.sim.supervise import (
    HEALTH_STATES,
    BreakerConfig,
    DeviceHealth,
    FleetSupervisor,
    HealthColumns,
    HealthPolicy,
    LinkCircuitBreaker,
    wasted_radio_j,
)
from repro.sim.timeline import render_timeline

__all__ = [
    "AggregatorStall",
    "BSNNode",
    "BSNReport",
    "BreakerConfig",
    "BurstLoss",
    "CHECKPOINT_SCHEMA",
    "ChaosBounds",
    "ChaosDriver",
    "ChaosJudge",
    "ChaosOutcome",
    "ChaosRunConfig",
    "ChaosScenario",
    "ChaosScore",
    "ChaosSearchConfig",
    "ChaosSearchResult",
    "ChaosStrategist",
    "ChaosWeights",
    "Checkpointer",
    "CrossEndSimulator",
    "DecisionRecord",
    "DeviceHealth",
    "DischargeTrace",
    "FaultCampaign",
    "FaultModel",
    "FleetConfig",
    "FleetResult",
    "FleetSpec",
    "FleetSupervisor",
    "GilbertElliottChannel",
    "GilbertElliottParams",
    "HEALTH_STATES",
    "HealthColumns",
    "HealthPolicy",
    "IntegrityConfig",
    "LinkCircuitBreaker",
    "LinkOutage",
    "PayloadCorruption",
    "ReplayResult",
    "ResilienceReport",
    "SensorBrownout",
    "assert_replay",
    "build_bundle",
    "burst_lengths",
    "concat_fleet_results",
    "canonical_json",
    "chaos_search",
    "fault_signature",
    "load_bundle",
    "load_checkpoint",
    "pareto_worst",
    "replay_bundle",
    "report_digest",
    "save_bundle",
    "save_checkpoint",
    "stable_digest",
    "wasted_radio_j",
    "MultiNodeBSN",
    "ParallelConfig",
    "PartitionEvaluationCache",
    "PartitionMetrics",
    "SimulationReport",
    "battery_lifetime_hours",
    "derive_seeds",
    "ge_outcome_block",
    "evaluate_partition",
    "fleet_results_identical",
    "fleet_soa_rounds",
    "metrics_identical",
    "parallel_map",
    "render_timeline",
    "shard_map",
    "simulate_discharge",
    "simulate_fleet_scalar",
    "simulate_fleet_soa",
    "stream_soa_windows",
    "sweep",
    "event_period_s",
]
