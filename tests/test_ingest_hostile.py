"""Hostile wire input into the gateway's ingest boundary.

Arbitrary byte matrices, lengths and stream ids go into
``FrameIngestor.push_frames``, ``decode_frames`` and
``FrameReassembler.push``.  Only the library's own errors may escape, and
after every accepted push the books balance: each frame of the batch is
counted exactly once as ok, corrupt or duplicate, and the pool took
exactly the samples of the frames counted ok.  A scalar model built on
``decode_frame`` and ``decode_values_scalar`` re-derives every counter
and the pool's ring contents independently, one sample at a time.

Most uniformly random bytes never pass a 16-bit CRC, so the batches mix
valid frames (random payload widths, sequence numbers near each stream's
next one), the same frames with one flipped bit or a cut length, and raw
garbage.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataValidationError, IntegrityError
from repro.hw.framing import (
    SEQ_MODULUS,
    FrameReassembler,
    FramingConfig,
    decode_frame,
    decode_frames,
    decode_values_scalar,
    encode_frames,
    pack_byte_rows,
)
from repro.stream import FrameIngestor, MomentsBackend, StreamPool, StreamSpec

ALLOWED = (IntegrityError, DataValidationError, ConfigurationError)
CONFIGS = (FramingConfig(), FramingConfig(crc=False), FramingConfig(max_payload_bytes=9))
N_STREAMS = 3
CAPACITY = 16
WORD = 4  # Q16.16 bytes per sample

COUNTERS = ("frames_ok", "frames_corrupt", "frames_duplicate",
            "sequence_gaps", "frames_missing")


@st.composite
def _rows(draw, config):
    """Byte rows of one batch: valid, damaged and garbage frames."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 10))
    kinds = rng.choice(4, n, p=[0.55, 0.15, 0.15, 0.15])
    plens = rng.integers(0, config.max_payload_bytes + 1, n)
    plens = np.where(rng.random(n) < 0.7, plens - plens % WORD, plens)
    seqs = rng.integers(-2, 4, n) + draw(st.sampled_from([0, SEQ_MODULUS - 2]))
    payloads = [rng.integers(0, 256, k, dtype=np.uint8).tobytes() for k in plens]
    matrix, lengths = encode_frames(payloads, seqs, config, last=rng.random(n) < 0.5)
    rows = [matrix[i, : lengths[i]].tobytes() for i in range(n)]
    for i, kind in enumerate(kinds):
        row = bytearray(rows[i])
        if kind == 1:  # one flipped bit
            bit = int(rng.integers(0, 8 * len(row)))
            row[bit // 8] ^= 1 << (bit % 8)
        elif kind == 2:  # cut short
            del row[int(rng.integers(0, len(row))):]
        elif kind == 3:  # garbage
            row = bytearray(rng.integers(0, 256, rng.integers(0, 24), dtype=np.uint8))
        rows[i] = bytes(row)
    return rows


@st.composite
def _batch(draw):
    """``(config, stream_ids, matrix, lengths)``, sometimes malformed."""
    config = draw(st.sampled_from(CONFIGS))
    rows = draw(_rows(config))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix, lengths = pack_byte_rows(rows)
    pad = int(rng.integers(0, 4))
    garbage = rng.integers(0, 256, (len(rows), matrix.shape[1] + pad), dtype=np.uint8)
    for i, row in enumerate(rows):  # garbage past every length
        garbage[i, : len(row)] = np.frombuffer(row, dtype=np.uint8)
    sids = rng.integers(0, N_STREAMS, len(rows))
    if draw(st.booleans()):  # hostile header fields of the call itself
        which = draw(st.sampled_from(["sid", "length", "sids_shape", "lengths_shape"]))
        if which == "sid" and len(rows):
            sids[rng.integers(0, len(rows))] = draw(st.sampled_from([-1, N_STREAMS, 99]))
        elif which == "length" and len(rows):
            lengths[rng.integers(0, len(rows))] = draw(
                st.sampled_from([-1, garbage.shape[1] + 1])
            )
        elif which == "sids_shape":
            sids = sids[:-1] if len(rows) else np.zeros(1, dtype=np.int64)
        else:
            lengths = lengths[:, None]
    return config, sids, garbage, lengths


class _ScalarModel:
    """Per-stream counters re-derived frame by frame with ``decode_frame``."""

    def __init__(self) -> None:
        self.counts = {name: np.zeros(N_STREAMS, dtype=np.int64) for name in COUNTERS}
        self.samples = np.zeros(N_STREAMS, dtype=np.int64)
        self.ring = np.zeros((N_STREAMS, CAPACITY))
        self.expected = [None] * N_STREAMS

    def push(self, sids, rows, config) -> None:
        for s, row in zip(sids, rows):
            try:
                frame = decode_frame(row, config)
            except IntegrityError:
                self.counts["frames_corrupt"][s] += 1
                continue
            if self.expected[s] is not None:
                delta = (frame.seq - self.expected[s]) % SEQ_MODULUS
                if delta >= SEQ_MODULUS // 2:
                    self.counts["frames_duplicate"][s] += 1
                    continue
                if delta:
                    self.counts["sequence_gaps"][s] += 1
                    self.counts["frames_missing"][s] += delta
            if len(frame.payload) % WORD:
                self.counts["frames_corrupt"][s] += 1
                continue
            self.expected[s] = (frame.seq + 1) % SEQ_MODULUS
            self.counts["frames_ok"][s] += 1
            # No tick runs, so skip_stale takes every (finite) sample.
            for value in decode_values_scalar(frame.payload):
                self.ring[s, self.samples[s] % CAPACITY] = value
                self.samples[s] += 1


def _ingestor(config):
    spec = StreamSpec.homogeneous(N_STREAMS, window=8, hop=4, capacity=CAPACITY)
    return FrameIngestor(StreamPool(spec, MomentsBackend()), config)


def _totals(ingestor):
    return sum(int(getattr(ingestor, name).sum()) for name in
               ("frames_ok", "frames_corrupt", "frames_duplicate"))


@given(st.lists(_batch(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_push_frames_balances_its_books(batches):
    ingestors, models = {}, {}
    for config, sids, matrix, lengths in batches:
        ingestor = ingestors.setdefault(config, _ingestor(config))
        model = models.setdefault(config, _ScalarModel())
        before_total = _totals(ingestor)
        before_samples = ingestor.pool.accepted_samples.copy()
        before_ring = ingestor.pool._ring.copy()
        try:
            accepted = ingestor.push_frames(sids, matrix, lengths)
        except ALLOWED:
            # A rejected call changes nothing.
            assert _totals(ingestor) == before_total
            assert np.array_equal(ingestor.pool.accepted_samples, before_samples)
            assert np.array_equal(ingestor.pool._ring, before_ring)
            continue
        rows = [matrix[i, : lengths[i]].tobytes() for i in range(len(matrix))]
        model.push(sids.tolist(), rows, config)
        assert _totals(ingestor) - before_total == len(matrix)
        grown = ingestor.pool.accepted_samples - before_samples
        assert accepted == int(grown.sum())
        assert np.array_equal(ingestor.pool.accepted_samples, model.samples)
        assert ingestor.pool._ring.tobytes() == model.ring.tobytes()
        for name in COUNTERS:
            assert np.array_equal(getattr(ingestor, name), model.counts[name]), name


@given(_batch())
@settings(max_examples=150, deadline=None)
def test_decode_frames_matches_scalar_or_refuses(batch):
    config, _, matrix, lengths = batch
    try:
        decoded = decode_frames(matrix, config, lengths)
    except ALLOWED:
        return
    assert len(decoded) == len(matrix)
    for i in range(len(matrix)):
        row = matrix[i, : lengths[i]].tobytes()
        try:
            expected = decode_frame(row, config)
        except IntegrityError as err:
            assert not decoded.ok[i] and decoded.errors[i] == str(err)
        else:
            assert decoded.ok[i] and decoded.frame(i) == expected


@given(_batch())
@settings(max_examples=150, deadline=None)
def test_reassembler_counts_every_push_once(batch):
    config, _, matrix, lengths = batch
    receiver = FrameReassembler(config)
    for i in range(len(matrix)):
        length = int(np.clip(lengths.ravel()[i], 0, matrix.shape[1]))
        before = receiver.counters.frames_total
        receiver.push(matrix[i, :length].tobytes())
        assert receiver.counters.frames_total == before + 1
