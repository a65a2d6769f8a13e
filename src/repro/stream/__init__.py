"""Struct-of-arrays multi-stream ingestion and batched window scoring.

The streaming counterpart of :mod:`repro.sim.fleetsoa`: one ring-buffer
ndarray block across all N concurrent live streams, per-stream
window/hop grids, and one batched scoring call per tick for *all* due
windows across *all* streams — with a per-stream scalar twin pinned
bit-identical, framed-wire ingestion with per-tenant integrity
accounting, and explicit backpressure drop/late counters.  See
``docs/PERFORMANCE.md`` ("Multi-stream ingestion engine").
"""

from repro.stream.engine import (
    BACKPRESSURE_POLICIES,
    EngineBackend,
    MomentsBackend,
    StreamPool,
    StreamRunResult,
    StreamSpec,
    TickResult,
    run_stream_pool,
    stream_results_identical,
)
from repro.stream.ingest import FrameIngestor
from repro.stream.twin import ScalarStreamTwin, run_twin

__all__ = [
    "BACKPRESSURE_POLICIES",
    "EngineBackend",
    "FrameIngestor",
    "MomentsBackend",
    "ScalarStreamTwin",
    "StreamPool",
    "StreamRunResult",
    "StreamSpec",
    "TickResult",
    "run_stream_pool",
    "run_twin",
    "stream_results_identical",
]
