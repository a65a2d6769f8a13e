"""Framed-wire ingestion into the multi-stream pool, accounted per tenant.

Live subscriber traffic arrives as wire frames (:mod:`repro.hw.framing`:
versioned header, 16-bit sequence number, Q16.16 payload, CRC-16
trailer), not clean ndarrays.  :class:`FrameIngestor` is the boundary:
it decodes frame batches with the vectorised batch codec
(:func:`~repro.hw.framing.decode_frames`), enforces per-stream sequence
discipline in the modular space of :data:`~repro.hw.framing.SEQ_MODULUS`
(duplicates discarded, gaps counted with their implied missing frames),
deserialises the accepted payloads of a batch in one call, and feeds
them to :meth:`~repro.stream.engine.StreamPool.extend_streams` in one
ragged scatter — where the pool's own non-finite rejection and
backpressure accounting take over.

Integrity columns are struct-of-arrays like the pool itself: one int64
column per counter across all streams, aggregated to per-tenant
:class:`~repro.hw.framing.IntegrityCounters` on demand — the
multi-subscriber gateway bookkeeping the fog-assisted wIoT shape needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.dsp.fixedpoint import FixedPointFormat, Q16_16
from repro.errors import ConfigurationError
from repro.hw.framing import (
    SEQ_MODULUS,
    FramingConfig,
    IntegrityCounters,
    decode_frames,
    decode_values,
)
from repro.stream.engine import StreamPool


class FrameIngestor:
    """Decode, sequence-check and ingest wire frames for a stream pool.

    Sequence discipline per stream: the first verified frame synchronises
    the expected counter; afterwards ``delta = (seq - expected) mod
    SEQ_MODULUS`` classifies each frame — ``0`` in-order, a small forward
    delta a gap (accepted, with ``delta`` missing frames charged), and a
    large delta (≥ half the modular space) a duplicate or stale reorder
    (discarded).  Corrupt frames (failed CRC/structure, or a payload that
    is not whole Q16.16 words) never reach the pool.

    Args:
        pool: Destination :class:`~repro.stream.engine.StreamPool`.
        config: Wire-format parameters (must match the sender's).
        fmt: Fixed-point payload format (Q16.16 by default).
    """

    def __init__(
        self,
        pool: StreamPool,
        config: Optional[FramingConfig] = None,
        fmt: FixedPointFormat = Q16_16,
    ) -> None:
        self.pool = pool
        self.config = config if config is not None else FramingConfig()
        self.fmt = fmt
        if fmt.total_bits % 8:
            raise ConfigurationError(
                f"payloads need a byte-aligned format, got {fmt.total_bits} bits"
            )
        self._word = fmt.total_bits // 8
        n = pool.n_streams
        #: Next sequence number per stream; ``None`` until the first
        #: verified frame synchronises it.
        self._expected: List[Optional[int]] = [None] * n
        self.frames_ok = np.zeros(n, dtype=np.int64)
        self.frames_corrupt = np.zeros(n, dtype=np.int64)
        self.frames_duplicate = np.zeros(n, dtype=np.int64)
        self.sequence_gaps = np.zeros(n, dtype=np.int64)
        self.frames_missing = np.zeros(n, dtype=np.int64)
        self.payloads_ok = np.zeros(n, dtype=np.int64)
        self.samples_in = np.zeros(n, dtype=np.int64)

    def push_frames(
        self,
        stream_ids: Sequence[int],
        frames: Union[np.ndarray, Sequence[bytes]],
        lengths: Optional[np.ndarray] = None,
    ) -> int:
        """Ingest a batch of frames; returns samples accepted by the pool.

        ``stream_ids[i]`` owns ``frames[i]``; frames are processed in
        batch order, which is arrival order per stream.  Decoding and CRC
        verification run once for the whole batch through the vectorised
        codec; sequencing and the payload word check run per frame; the
        accepted payloads are then deserialised with one
        :func:`~repro.hw.framing.decode_values` call and written with one
        :meth:`~repro.stream.engine.StreamPool.extend_streams` scatter.
        """
        sids = np.asarray(stream_ids, dtype=np.int64)
        batch = decode_frames(frames, self.config, lengths)
        if sids.shape != (len(batch),):
            raise ConfigurationError(
                f"stream_ids must be a length-{len(batch)} vector, "
                f"got shape {sids.shape}"
            )
        if len(batch) and not (
            0 <= int(sids.min()) and int(sids.max()) < self.pool.n_streams
        ):
            raise ConfigurationError(
                f"stream ids must lie in [0, {self.pool.n_streams})"
            )
        half = SEQ_MODULUS // 2
        word = self._word
        expected = self._expected
        streams, lasts, sizes, payloads = [], [], [], []
        for s, ok, seq, last, payload in zip(
            sids.tolist(), batch.ok.tolist(), batch.seq.tolist(),
            batch.last.tolist(), batch.payloads,
        ):
            if not ok:
                self.frames_corrupt[s] += 1
                continue
            if expected[s] is not None:
                delta = (seq - expected[s]) % SEQ_MODULUS
                if delta == 0:
                    pass
                elif delta < half:
                    self.sequence_gaps[s] += 1
                    self.frames_missing[s] += delta
                else:
                    self.frames_duplicate[s] += 1
                    continue
            if len(payload) % word:
                # Structurally valid frame, but the payload is not whole
                # fixed-point words — corrupt at the payload layer.
                self.frames_corrupt[s] += 1
                continue
            expected[s] = (seq + 1) % SEQ_MODULUS
            streams.append(s)
            if last:
                lasts.append(s)
            sizes.append(len(payload) // word)
            payloads.append(payload)
        if not streams:
            return 0
        np.add.at(self.frames_ok, streams, 1)
        np.add.at(self.payloads_ok, lasts, 1)
        values = decode_values(b"".join(payloads), self.fmt)
        got = self.pool.extend_streams(streams, sizes, values)
        self.samples_in += got
        return int(got.sum())

    def stream_counters(self, stream: int) -> IntegrityCounters:
        """One stream's integrity bookkeeping as scalar counters."""
        return IntegrityCounters(
            frames_ok=int(self.frames_ok[stream]),
            frames_corrupt=int(self.frames_corrupt[stream]),
            frames_duplicate=int(self.frames_duplicate[stream]),
            sequence_gaps=int(self.sequence_gaps[stream]),
            frames_missing=int(self.frames_missing[stream]),
            payloads_ok=int(self.payloads_ok[stream]),
        )

    def tenant_stats(self) -> Dict[int, IntegrityCounters]:
        """Integrity counters aggregated per tenant id.

        Sums each struct-of-arrays counter column over the streams owned
        by each tenant (``spec.tenants``) — the per-subscriber view a
        multi-tenant gateway reports.
        """
        tenants = self.pool.spec.tenants
        size = int(tenants.max()) + 1 if tenants.size else 0
        sums = {
            name: np.bincount(tenants, weights=getattr(self, name),
                              minlength=size).astype(np.int64)
            for name in (
                "frames_ok",
                "frames_corrupt",
                "frames_duplicate",
                "sequence_gaps",
                "frames_missing",
                "payloads_ok",
            )
        }
        return {
            int(t): IntegrityCounters(
                frames_ok=int(sums["frames_ok"][t]),
                frames_corrupt=int(sums["frames_corrupt"][t]),
                frames_duplicate=int(sums["frames_duplicate"][t]),
                sequence_gaps=int(sums["sequence_gaps"][t]),
                frames_missing=int(sums["frames_missing"][t]),
                payloads_ok=int(sums["payloads_ok"][t]),
            )
            for t in np.unique(tenants)
        }
