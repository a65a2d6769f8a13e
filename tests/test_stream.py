"""Tests for the struct-of-arrays multi-stream ingestion engine.

The load-bearing contract: :class:`repro.stream.StreamPool` (one ring
ndarray block, batched window gathers, one scoring call per tick) is
**bit-identical** to :class:`repro.stream.ScalarStreamTwin` (Python ring
buffers, per-sample scalar scoring) — scores, decisions, window
sequencing and every backpressure counter — across window/hop grids,
chunk cadences and overload policies.  Hypothesis drives the grids and
cadences; directed tests pin the edges (hop > window, capacity
eviction, NaN rejection, wire ingestion accounting).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.fixedpoint import FixedPointFormat
from repro.errors import ConfigurationError
from repro.hw.framing import FramingConfig, encode_frames, encode_values
from repro.stream import (
    BACKPRESSURE_POLICIES,
    EngineBackend,
    FrameIngestor,
    MomentsBackend,
    ScalarStreamTwin,
    StreamPool,
    StreamSpec,
    run_stream_pool,
    run_twin,
    stream_results_identical,
)


def _random_spec(rng, n, capacity=48):
    return StreamSpec(
        windows=rng.integers(2, capacity + 1, n),
        hops=rng.integers(1, 20, n),  # routinely exceeds the window
        levels=rng.normal(0.0, 0.5, n),
        tenants=rng.integers(0, 4, n),
        capacity=capacity,
    )


class TestStreamSpec:
    def test_homogeneous_layout(self):
        spec = StreamSpec.homogeneous(5, window=8, hop=4, level=0.25)
        assert spec.n_streams == 5
        assert spec.capacity == 16  # 2x the largest window by default
        assert (spec.windows == 8).all() and (spec.hops == 4).all()
        assert (spec.levels == 0.25).all()
        assert np.array_equal(spec.tenants, np.arange(5))

    def test_capacity_must_hold_largest_window(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            StreamSpec(windows=[8, 16], hops=[4, 4], capacity=12)

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(windows=[4, 0], hops=[1, 1])
        with pytest.raises(ConfigurationError):
            StreamSpec(windows=[4, 4], hops=[1, 0])
        with pytest.raises(ConfigurationError):
            StreamSpec(windows=[4, 4], hops=[1])
        with pytest.raises(ConfigurationError):
            StreamSpec(windows=[4], hops=[2], levels=[np.nan])
        with pytest.raises(ConfigurationError):
            StreamSpec(windows=[4], hops=[2], tenants=[-1])

    def test_columns_are_read_only(self):
        spec = StreamSpec.homogeneous(2, window=4, hop=2)
        with pytest.raises(ValueError):
            spec.windows[0] = 9


class TestWindowEmission:
    def test_hand_computed_grid(self):
        # window 4, hop 2: window k covers samples [2k, 2k+4).
        spec = StreamSpec.homogeneous(1, window=4, hop=2, capacity=16)
        pool = StreamPool(spec, MomentsBackend())
        pool.extend(0, np.arange(5, dtype=float))
        out = pool.tick()
        assert list(out.indices) == [0]
        assert list(out.end_seq) == [4]
        pool.extend(0, np.arange(5.0, 8.0))
        out = pool.tick()
        assert list(out.indices) == [1, 2]
        assert list(out.end_seq) == [6, 8]

    def test_hop_larger_than_window_skips_samples(self):
        # window 2, hop 5: windows at samples [0,2), [5,7), [10,12)...
        spec = StreamSpec.homogeneous(1, window=2, hop=5, capacity=16)
        pool = StreamPool(spec, MomentsBackend())
        pool.extend(0, np.arange(12, dtype=float))
        out = pool.tick()
        assert list(out.indices) == [0, 1, 2]
        assert list(out.end_seq) == [2, 7, 12]

    def test_tick_with_nothing_due_is_empty(self):
        spec = StreamSpec.homogeneous(2, window=8, hop=4)
        pool = StreamPool(spec, MomentsBackend())
        pool.extend(0, np.arange(7, dtype=float))
        out = pool.tick()
        assert len(out) == 0
        assert pool.ticks == 1

    def test_window_content_is_the_right_samples(self):
        # Score = mean-dominated for a constant window: feed window k the
        # constant k and check the gathered content through the score.
        spec = StreamSpec.homogeneous(1, window=3, hop=3, capacity=9)
        backend = MomentsBackend(w_mean=1.0, w_std=0.0, w_range=0.0,
                                 w_cross=0.0, bias=0.0)
        pool = StreamPool(spec, backend)
        pool.extend(0, np.repeat([10.0, 20.0, 30.0], 3))
        out = pool.tick()
        assert list(out.scores) == [10.0, 20.0, 30.0]


class TestBackpressure:
    def test_skip_stale_counts_evicted_windows(self):
        spec = StreamSpec.homogeneous(1, window=4, hop=2, capacity=4)
        pool = StreamPool(spec, MomentsBackend(), policy="skip_stale")
        pool.extend(0, np.arange(12, dtype=float))
        # min live start = 12 - 4 = 8 -> first fresh window k = 4.
        assert pool.skipped_windows[0] == 4
        out = pool.tick()
        assert list(out.indices) == [4]

    def test_drop_new_refuses_overflow_samples(self):
        spec = StreamSpec.homogeneous(1, window=4, hop=2, capacity=4)
        pool = StreamPool(spec, MomentsBackend(), policy="drop_new")
        accepted = pool.extend(0, np.arange(12, dtype=float))
        assert accepted == 4
        assert pool.dropped_samples[0] == 8
        out = pool.tick()  # the protected window is intact
        assert list(out.indices) == [0]
        assert pool.skipped_windows[0] == 0

    def test_nonfinite_samples_rejected_under_both_policies(self):
        for policy in BACKPRESSURE_POLICIES:
            spec = StreamSpec.homogeneous(1, window=2, hop=1, capacity=8)
            pool = StreamPool(spec, MomentsBackend(), policy=policy)
            assert not pool.append(0, np.nan)
            assert not pool.append(0, np.inf)
            pool.extend(0, np.asarray([1.0, -np.inf, 2.0]))
            assert pool.rejected_samples[0] == 3
            assert pool.accepted_samples[0] == 2

    def test_unknown_policy_rejected(self):
        spec = StreamSpec.homogeneous(1, window=2, hop=1)
        with pytest.raises(ConfigurationError, match="policy"):
            StreamPool(spec, MomentsBackend(), policy="amnesia")


class TestSoaTwinIdentity:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24),
           st.sampled_from(BACKPRESSURE_POLICIES))
    @settings(max_examples=40, deadline=None)
    def test_random_grids_and_cadences(self, seed, tick_samples, policy):
        """Ragged window/hop grids (hop > window included) and chunk
        boundaries straddling windows: SoA == twin bit-for-bit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        spec = _random_spec(rng, n)
        samples = rng.normal(0.0, 1.0, (n, int(rng.integers(1, 120))))
        twin = run_twin(spec, MomentsBackend(), samples, tick_samples, policy)
        soa = run_stream_pool(
            spec, MomentsBackend(), samples, tick_samples, policy
        )
        assert stream_results_identical(twin, soa)
        assert np.array_equal(twin.decisions, soa.decisions)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_overload_identity(self, seed):
        """Chunks far beyond capacity: eviction (skip_stale) and refusal
        (drop_new) account identically in both implementations."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        spec = _random_spec(rng, n, capacity=16)
        samples = rng.normal(0.0, 1.0, (n, 150))
        for policy in BACKPRESSURE_POLICIES:
            twin = run_twin(spec, MomentsBackend(), samples, 40, policy)
            soa = run_stream_pool(spec, MomentsBackend(), samples, 40, policy)
            assert stream_results_identical(twin, soa)

    def test_nan_bursts_identical(self):
        rng = np.random.default_rng(11)
        spec = _random_spec(rng, 6)
        samples = rng.normal(0.0, 1.0, (6, 90))
        samples[::2, ::5] = np.nan
        twin = run_twin(spec, MomentsBackend(), samples, 7)
        soa = run_stream_pool(spec, MomentsBackend(), samples, 7)
        assert stream_results_identical(twin, soa)
        assert twin.rejected_samples.sum() > 0

    def test_per_sample_api_matches_chunked_api(self):
        rng = np.random.default_rng(12)
        spec = _random_spec(rng, 5)
        samples = rng.normal(0.0, 1.0, (5, 60))
        chunked = run_stream_pool(spec, MomentsBackend(), samples, 10)
        pool = StreamPool(spec, MomentsBackend())
        outs = []
        for t0 in range(0, 60, 10):
            for j in range(t0, t0 + 10):
                for s in range(5):
                    pool.append(s, samples[s, j])
            outs.append(pool.tick())
        assert stream_results_identical(chunked, pool.result_from(outs))

    def test_results_identical_rejects_differences(self):
        rng = np.random.default_rng(13)
        spec = _random_spec(rng, 3)
        samples = rng.normal(0.0, 1.0, (3, 50))
        a = run_stream_pool(spec, MomentsBackend(), samples, 10)
        b = run_stream_pool(spec, MomentsBackend(), samples, 10)
        assert stream_results_identical(a, b)
        b.scores[0] += 1e-12
        assert not stream_results_identical(a, b)


class TestEngineBackend:
    def test_decisions_match_predict_segment(self, tiny_engine, tiny_dataset):
        length = tiny_engine.layout.segment_length
        n = 6
        spec = StreamSpec.homogeneous(
            n, window=length, hop=length, capacity=2 * length
        )
        samples = tiny_dataset.segments[:n].astype(np.float64)
        backend = EngineBackend(tiny_engine)
        result = run_stream_pool(spec, backend, samples, length)
        expected = np.asarray(
            [int(tiny_engine.predict_segment(row)) for row in samples]
        )
        order = np.argsort(result.streams)
        assert np.array_equal(result.decisions[order], expected)

    def test_twin_identity_through_the_full_pipeline(
        self, tiny_engine, tiny_dataset
    ):
        length = tiny_engine.layout.segment_length
        spec = StreamSpec.homogeneous(
            4, window=length, hop=length // 2, capacity=2 * length
        )
        samples = np.concatenate(
            [tiny_dataset.segments[:4], tiny_dataset.segments[4:8]], axis=1
        ).astype(np.float64)
        backend = EngineBackend(tiny_engine)
        twin = run_twin(spec, backend, samples, 37)
        soa = run_stream_pool(spec, backend, samples, 37)
        assert soa.n_windows > 0
        assert stream_results_identical(twin, soa)

    def test_rejects_mismatched_window_grid(self, tiny_engine):
        length = tiny_engine.layout.segment_length
        spec = StreamSpec.homogeneous(2, window=length + 1, hop=4)
        with pytest.raises(ConfigurationError, match="segment_length"):
            StreamPool(spec, EngineBackend(tiny_engine))


class TestFrameIngestor:
    def _setup(self, tenants=(0, 0, 1, 1)):
        spec = StreamSpec.homogeneous(
            len(tenants), window=8, hop=4, capacity=32, tenants=list(tenants)
        )
        pool = StreamPool(spec, MomentsBackend())
        config = FramingConfig()
        return pool, FrameIngestor(pool, config), config

    def test_clean_traffic_reaches_the_pool(self):
        pool, ingestor, config = self._setup()
        rng = np.random.default_rng(21)
        payloads, sids, seqs = [], [], []
        for s in range(4):
            for k in range(4):
                payloads.append(encode_values(rng.normal(0, 1, 4)))
                sids.append(s)
                seqs.append(k)
        matrix, lengths = encode_frames(payloads, seqs, config)
        accepted = ingestor.push_frames(sids, matrix, lengths)
        assert accepted == 64
        assert (ingestor.frames_ok == 4).all()
        assert (pool.accepted_samples == 16).all()
        assert len(pool.tick()) == 4 * 3  # 16 samples: windows 0..2 due

    def test_corruption_gap_duplicate_accounting(self):
        pool, ingestor, config = self._setup()
        rng = np.random.default_rng(22)
        payloads = [encode_values(rng.normal(0, 1, 4)) for _ in range(6)]
        matrix, lengths = encode_frames(payloads, range(6), config)
        matrix[1, 6] ^= 0xFF  # corrupt seq 1 in flight
        rows = [0, 1, 2, 2, 5]  # drop seqs 3-4, replay seq 2
        accepted = ingestor.push_frames(
            [0] * len(rows), matrix[rows], lengths[rows]
        )
        counters = ingestor.stream_counters(0)
        assert counters.frames_corrupt == 1
        assert counters.frames_duplicate == 1
        # two gap events: over the corrupted frame, and over the dropped pair
        assert counters.sequence_gaps == 2
        assert counters.frames_missing == 3
        assert counters.frames_ok == 3
        assert accepted == 12

    def test_tenant_stats_aggregate_streams(self):
        pool, ingestor, config = self._setup(tenants=(7, 7, 9, 9))
        payloads = [encode_values([1.0, 2.0])] * 4
        matrix, lengths = encode_frames(payloads, [0, 0, 0, 5], config)
        ingestor.push_frames([0, 1, 2, 3], matrix, lengths)
        stats = ingestor.tenant_stats()
        assert set(stats) == {7, 9}
        assert stats[7].frames_ok == 2
        assert stats[9].frames_ok == 2
        assert stats[9].sequence_gaps == 0  # first frame synchronises

    def test_word_misaligned_payload_is_corrupt(self):
        pool, ingestor, config = self._setup()
        matrix, lengths = encode_frames([b"\x01\x02\x03"], [0], config)
        accepted = ingestor.push_frames([0], matrix, lengths)
        assert accepted == 0
        assert ingestor.stream_counters(0).frames_corrupt == 1
        # the broken payload must not consume the sequence number
        good, glen = encode_frames([encode_values([1.0])], [0], config)
        ingestor.push_frames([0], good, glen)
        assert ingestor.stream_counters(0).frames_ok == 1
        assert ingestor.stream_counters(0).sequence_gaps == 0

    def test_format_must_be_byte_aligned(self):
        pool, _, config = self._setup()
        with pytest.raises(ConfigurationError, match="byte-aligned"):
            FrameIngestor(pool, config, FixedPointFormat(4, 8))

    def test_stream_id_validation(self):
        pool, ingestor, config = self._setup()
        matrix, lengths = encode_frames([encode_values([1.0])], [0], config)
        with pytest.raises(ConfigurationError, match="stream ids"):
            ingestor.push_frames([4], matrix, lengths)
        with pytest.raises(ConfigurationError, match="length-1"):
            ingestor.push_frames([0, 1], matrix, lengths)
