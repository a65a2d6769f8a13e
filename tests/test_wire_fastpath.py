"""Equivalence tests for the vectorized wire data plane.

Every batch path here has a scalar reference implementation that the
rest of the repo trusts; these tests pin the batch twins to those
references bit-for-bit — byte-identical frames, identical CRCs,
identical error messages, and campaign reports that replay exactly.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.dsp.fixedpoint import FixedPointFormat, Q16_16
from repro.errors import ConfigurationError, IntegrityError, SimulationError
from repro.hw.arq import UNBOUNDED_ARQ, ARQConfig
from repro.hw.framing import (
    FramingConfig,
    batch_crc16_ccitt,
    crc16_ccitt,
    decode_frame,
    decode_frames,
    decode_values,
    decode_values_scalar,
    encode_frame,
    encode_frames,
    encode_values,
    encode_values_scalar,
    fragment_payload,
    pack_byte_rows,
    quantize_raw,
    unpack_byte_rows,
)
from repro.sim.channel import GilbertElliottChannel, GilbertElliottParams
from repro.sim.chaos import report_digest
from repro.sim.evaluate import PartitionMetrics
from repro.sim.faults import (
    AggregatorStall,
    BurstLoss,
    FaultCampaign,
    FaultModel,
    IntegrityConfig,
    LinkOutage,
    PayloadCorruption,
    SensorBrownout,
    reports_identical,
)
from repro.sim.simulator import CrossEndSimulator
from repro.sim.supervise import BreakerConfig, LinkCircuitBreaker

CFG = FramingConfig()
NO_CRC = FramingConfig(crc=False)

#: Byte-aligned formats spanning the int64 fast path and the odd-width
#: byte-shift reconstruction (3-byte words).
FORMATS = [Q16_16, FixedPointFormat(8, 8), FixedPointFormat(16, 8)]

PAYLOADS = st.lists(st.binary(max_size=80), max_size=12)


def synthetic_metrics() -> PartitionMetrics:
    """A tiny hand-built partition for campaign fast-path tests."""
    return PartitionMetrics(
        in_sensor=frozenset(),
        sensor_compute_j=1e-6,
        sensor_tx_j=1e-6,
        sensor_rx_j=1e-7,
        delay_front_s=1e-3,
        delay_link_s=2e-3,
        delay_back_s=1e-3,
        aggregator_cpu_j=1e-6,
        aggregator_radio_j=1e-6,
        crossing_bits_up=256,
        crossing_bits_down=0,
    )


class TestBatchCRC:
    @given(PAYLOADS)
    @settings(max_examples=60)
    def test_matches_scalar_per_row(self, rows):
        batch = batch_crc16_ccitt(rows)
        assert batch.dtype == np.uint16
        assert batch.tolist() == [crc16_ccitt(row) for row in rows]

    def test_matrix_with_lengths(self):
        rows = [b"", b"\x00", b"123456789", b"\xff" * 20]
        matrix, lengths = pack_byte_rows(rows)
        # Poison the padding: the CRC must only read the stated lengths.
        matrix[:, :] |= 0
        padded = matrix.copy()
        for i, row in enumerate(rows):
            padded[i, len(row):] = 0xAA
        assert batch_crc16_ccitt(padded, lengths=lengths).tolist() == [
            crc16_ccitt(row) for row in rows
        ]
        assert unpack_byte_rows(matrix, lengths) == rows

    def test_custom_init(self):
        rows = [b"abc", b"xyzzy"]
        assert batch_crc16_ccitt(rows, init=0x1D0F).tolist() == [
            crc16_ccitt(row, init=0x1D0F) for row in rows
        ]

    @given(
        st.integers(0, 12),
        st.integers(0, 40),
        st.integers(0, 0xFFFF),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_padded_matrix_matches_scalar(self, n, width, init, seed):
        """Random garbage past every length, any preset, zero rows and
        zero width: row ``i`` is the scalar CRC of its first bytes."""
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
        lengths = rng.integers(0, width + 1, size=n)
        got = batch_crc16_ccitt(matrix, lengths=lengths, init=init)
        assert got.dtype == np.uint16 and got.shape == (n,)
        assert got.tolist() == [
            crc16_ccitt(matrix[i, : lengths[i]].tobytes(), init) for i in range(n)
        ]
        # A strided (non-contiguous) view reads the same bytes.
        wide = np.repeat(matrix, 2, axis=1)
        assert batch_crc16_ccitt(wide[:, ::2], lengths, init).tolist() == got.tolist()

    def test_ccitt_false_check_value(self):
        """The catalogue check value of CRC-16/CCITT-FALSE, through the
        batch path, alone and beside other rows."""
        assert batch_crc16_ccitt([b"123456789"]).tolist() == [0x29B1]
        matrix, lengths = pack_byte_rows([b"", b"123456789", b"x"])
        matrix[0, :] = 0xEE
        assert batch_crc16_ccitt(matrix, lengths)[1] == 0x29B1
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            batch_crc16_ccitt(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            batch_crc16_ccitt(
                np.zeros((2, 4), dtype=np.uint8), lengths=np.array([1])
            )
        with pytest.raises(ConfigurationError):
            batch_crc16_ccitt(
                np.zeros((2, 4), dtype=np.uint8), lengths=np.array([1, 5])
            )


class TestBatchValueCodec:
    @given(
        st.lists(
            st.floats(min_value=-40000, max_value=40000, allow_nan=False),
            max_size=32,
        )
    )
    @settings(max_examples=60)
    def test_encode_decode_match_scalar(self, values):
        for fmt in FORMATS:
            blob = encode_values(values, fmt)
            assert blob == encode_values_scalar(values, fmt)
            fast = decode_values(blob, fmt)
            ref = decode_values_scalar(blob, fmt)
            assert np.array_equal(fast, ref)

    def test_empty_payload(self):
        assert encode_values([]) == b""
        assert decode_values(b"").tolist() == []

    def test_saturation_boundaries(self):
        for fmt in FORMATS:
            extremes = [
                fmt.max_raw / fmt.scale,
                fmt.min_raw / fmt.scale,
                1e12,
                -1e12,
            ]
            blob = encode_values(extremes, fmt)
            assert blob == encode_values_scalar(extremes, fmt)
            assert np.array_equal(
                decode_values(blob, fmt), decode_values_scalar(blob, fmt)
            )

    def test_quantize_raw_matches_from_float(self):
        values = np.array([0.0, 0.5 / Q16_16.scale, -0.5 / Q16_16.scale,
                           1.25, -7.75, 40000.0, -40000.0])
        raw = quantize_raw(values, Q16_16)
        assert raw.tolist() == [Q16_16.from_float(float(v)) for v in values]

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_values([1.0, float("nan")])

    def test_partial_word_rejected(self):
        with pytest.raises(IntegrityError):
            decode_values(b"\x00\x01\x02")
        with pytest.raises(IntegrityError):
            decode_values_scalar(b"\x00\x01\x02")


class TestBatchFrameCodec:
    @given(PAYLOADS, st.integers(0, 2**17))
    @settings(max_examples=60)
    def test_encode_rows_byte_identical(self, payloads, seq_start):
        payloads = [p[: CFG.max_payload_bytes] for p in payloads]
        for config in (CFG, NO_CRC):
            seqs = np.arange(seq_start, seq_start + len(payloads))
            last = np.arange(len(payloads)) % 2 == 0
            matrix, lengths = encode_frames(payloads, seqs, config, last=last)
            for i, payload in enumerate(payloads):
                ref = encode_frame(
                    payload, int(seqs[i]) % (1 << 16), config,
                    last=bool(last[i]),
                )
                assert matrix[i, : int(lengths[i])].tobytes() == ref

    def test_max_length_frame(self):
        config = FramingConfig(max_payload_bytes=16, crc=True)
        payload = bytes(range(16))
        matrix, lengths = encode_frames([payload], [7], config)
        assert matrix[0, : int(lengths[0])].tobytes() == encode_frame(
            payload, 7, config
        )
        batch = decode_frames(matrix, config, lengths)
        assert batch.ok.all() and batch.payloads[0] == payload

    def test_roundtrip_fields_match_scalar(self):
        payloads = [b"", b"abc", b"\x00" * 10, bytes(range(64))]
        matrix, lengths = encode_frames(
            payloads, np.arange(4), CFG, last=[False, True, False, True]
        )
        batch = decode_frames(matrix, CFG, lengths)
        assert len(batch) == 4
        for i in range(4):
            frame = decode_frame(matrix[i, : int(lengths[i])].tobytes(), CFG)
            assert batch.frame(i) == frame

    def test_accepts_byte_sequences(self):
        frames = fragment_payload(bytes(range(200)), 5, CFG)
        batch = decode_frames(frames, CFG)
        assert batch.ok.all()
        assert b"".join(batch.payloads) == bytes(range(200))
        assert batch.last.tolist() == [False, False, False, True]
        assert batch.seq.tolist() == [5, 6, 7, 8]

    def test_error_messages_match_scalar(self):
        good = encode_frame(b"payload", 3, CFG)
        corrupted = bytearray(good)
        corrupted[5] ^= 0x40  # payload bit -> CRC mismatch
        bad_version = bytearray(good)
        bad_version[0] ^= 0x20  # version nibble
        frames = [
            good,
            b"\x01\x02",  # shorter than a header
            bytes(bad_version),
            encode_frame(b"x", 0, NO_CRC),  # CRC flag mismatch
            good + b"extra",  # length mismatch
            bytes(corrupted),
            b"",  # empty frame
        ]
        batch = decode_frames(frames, CFG)
        assert batch.ok.tolist() == [
            True, False, False, False, False, False, False,
        ]
        for i, raw in enumerate(frames):
            if batch.ok[i]:
                continue
            with pytest.raises(IntegrityError) as scalar_exc:
                decode_frame(bytes(raw), CFG)
            assert batch.errors[i] == str(scalar_exc.value)
            with pytest.raises(IntegrityError) as batch_exc:
                batch.frame(i)
            assert str(batch_exc.value) == str(scalar_exc.value)

    def test_oversized_payload_rejected(self):
        config = FramingConfig(max_payload_bytes=8)
        with pytest.raises(ConfigurationError):
            encode_frames([b"123456789"], [0], config)

    def test_empty_batch(self):
        matrix, lengths = encode_frames([], np.zeros(0, dtype=int), CFG)
        assert matrix.shape[0] == 0
        assert len(decode_frames(matrix, CFG, lengths)) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            encode_frames([b"a", b"b"], [1], CFG)
        with pytest.raises(ConfigurationError):
            decode_frames(np.zeros(3, dtype=np.uint8), CFG)
        with pytest.raises(ConfigurationError):
            decode_frames(
                np.zeros((2, 8), dtype=np.uint8), CFG, lengths=np.array([9, 0])
            )


class TestOutcomeBlock:
    @pytest.mark.parametrize(
        "params",
        [
            GilbertElliottParams(0.02, 0.10, 0.01, 0.6),
            GilbertElliottParams(0.5, 0.5, 0.3, 0.7),
            GilbertElliottParams(1.0, 1.0, 0.0, 0.9),
        ],
    )
    def test_matches_scalar_stream(self, params):
        block = GilbertElliottChannel(params, seed=42)
        step = GilbertElliottChannel(params, seed=42)
        fast = block.outcome_block(500)
        slow = [step.next_outcome() for _ in range(500)]
        assert fast.tolist() == slow
        assert block.in_bad_state == step.in_bad_state
        # The generators stay aligned: the next draws agree too.
        assert block.outcome_block(100).tolist() == [
            step.next_outcome() for _ in range(100)
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottChannel().outcome_block(0)


class StallOnly(FaultModel):
    """A fault type outside the fast path's supported set."""

    def stall_s(self, event_index: int) -> float:
        return 1e-4 if event_index % 7 == 0 else 0.0


BUILTIN_TYPES = (
    BurstLoss, PayloadCorruption, LinkOutage, SensorBrownout, AggregatorStall,
)


class _Burst(BurstLoss):
    pass


class _Corruption(PayloadCorruption):
    pass


class _Outage(LinkOutage):
    pass


class _Brownout(SensorBrownout):
    pass


class _Stall(AggregatorStall):
    pass


#: Trivial subclasses of the built-in faults: same behaviour, but outside
#: the fast path's supported set, so campaigns of them run on the live
#: (scalar) fault source.  A campaign of ``BUILTIN_TYPES`` and the same
#: campaign of ``SUBCLASS_TYPES`` compare the two sources.
SUBCLASS_TYPES = (_Burst, _Corruption, _Outage, _Brownout, _Stall)

def live_twin(campaign):
    """``campaign`` with every built-in fault re-typed as its trivial
    subclass: the same faults, run on the live (scalar) source."""
    live = dict(zip(BUILTIN_TYPES, SUBCLASS_TYPES))
    faults = []
    for fault in campaign.faults:
        twin = copy.copy(fault)
        twin.__class__ = live[type(fault)]
        faults.append(twin)
    return FaultCampaign(faults, seed=campaign.seed)


#: Parametrises a test over the fault source a campaign runs on.
RUNNERS = pytest.mark.parametrize(
    "types", [BUILTIN_TYPES, SUBCLASS_TYPES], ids=["fast", "scalar"]
)


def resilience_mix(n_events, seed=11, types=BUILTIN_TYPES):
    burst, corruption, outage, brownout, stall = types
    return FaultCampaign(
        [
            burst(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
            corruption(0.01),
            outage(start_event=n_events // 4, n_events=n_events // 10),
            brownout(start_event=n_events // 2, n_events=5),
            stall(
                start_event=(n_events * 3) // 4, n_events=10,
                extra_delay_s=2e-3,
            ),
        ],
        seed=seed,
    )


def integrity_campaign(types=BUILTIN_TYPES):
    burst, corruption = types[:2]
    return FaultCampaign(
        [
            burst(GilbertElliottParams(0.01, 0.20, 0.005, 0.5)),
            corruption(0.08, mode="bitflip"),
        ],
        seed=13,
    )


class TestCampaignFastPath:
    def setup_method(self):
        self.metrics = synthetic_metrics()
        self.arq = ARQConfig(max_retries=3, timeout_s=2e-3, backoff_factor=2.0)

    def simulator(self, seed=3):
        return CrossEndSimulator(self.metrics, period_s=0.25, seed=seed)

    def test_supports_fast(self):
        assert resilience_mix(400).supports_fast()
        assert not resilience_mix(400, types=SUBCLASS_TYPES).supports_fast()
        assert not FaultCampaign([StallOnly()]).supports_fast()

    def test_unsupported_faults_take_the_live_source(self):
        report = FaultCampaign([StallOnly()]).run(self.simulator(), 50, arq=self.arq)
        assert report.n_events == 50

    def test_resilience_mix_identical(self):
        slow = resilience_mix(400, types=SUBCLASS_TYPES).run(
            self.simulator(), 400, arq=self.arq
        )
        fast = resilience_mix(400).run(self.simulator(), 400, arq=self.arq)
        assert reports_identical(slow, fast)

    def test_unbounded_divergence_message_identical(self):
        with pytest.raises(SimulationError) as slow:
            resilience_mix(400, types=SUBCLASS_TYPES).run(
                self.simulator(), 400, arq=None
            )
        with pytest.raises(SimulationError) as fast:
            resilience_mix(400).run(self.simulator(), 400, arq=None)
        assert str(slow.value) == str(fast.value)

    @pytest.mark.parametrize("crc,retransmit", [
        (False, False), (True, False), (True, True),
    ])
    def test_integrity_wire_formats_identical(self, crc, retransmit):
        integrity = IntegrityConfig(
            framing=FramingConfig(crc=crc),
            retransmit_on_corrupt=retransmit,
            values_per_payload=8,
        )
        slow, fast = (
            integrity_campaign(types).run(
                self.simulator(), 300, arq=self.arq, integrity=integrity
            )
            for types in (SUBCLASS_TYPES, BUILTIN_TYPES)
        )
        assert reports_identical(slow, fast)
        assert slow.frames_sent > 0

    def test_erasure_integrity_mix_identical(self):
        def campaign(types):
            burst, corruption = types[:2]
            return FaultCampaign(
                [
                    corruption(0.05, mode="erasure"),
                    burst(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
                ],
                seed=29,
            )

        integrity = IntegrityConfig(values_per_payload=4)
        slow, fast = (
            campaign(types).run(
                self.simulator(), 300, arq=self.arq, integrity=integrity
            )
            for types in (SUBCLASS_TYPES, BUILTIN_TYPES)
        )
        assert reports_identical(slow, fast)

    def test_reports_identical_is_nan_aware(self):
        a = resilience_mix(200, seed=5, types=SUBCLASS_TYPES).run(
            self.simulator(), 200, arq=self.arq
        )
        b = resilience_mix(200, seed=5).run(self.simulator(), 200, arq=self.arq)
        assert any(
            r.latency_s != r.latency_s for r in a.records
        ), "expected dropped events with NaN latency in this mix"
        assert reports_identical(a, b)
        other = resilience_mix(200, seed=6)
        c = other.run(self.simulator(), 200, arq=self.arq)
        assert not reports_identical(a, c)


#: ``report_digest`` of each jitter-free golden campaign.  Both fault
#: sources must reproduce every literal: a change to the shared event loop
#: moves both sources together, which the fast-vs-scalar tests above
#: cannot see.  Jitter stays out because ``np.exp`` may differ between
#: SIMD builds.
GOLDEN_DIGESTS = {
    "resilience_mix": (
        "659384287ea255bfcd7737282474a332"
        "3fa430d45ec22b62f009c246a0c50c79"
    ),
    "integrity_plain": (
        "7a1e59c6938a2bf281dcd48905d54f86"
        "4ca48069caafb1d968b6442ac20142a1"
    ),
    "integrity_detect": (
        "49cc6092133e91f1b14df89e41de65d0"
        "f7fc21891e4f4dbb58a1f29902c45cb1"
    ),
    "integrity_retransmit": (
        "b0dc4833da7ee9b597823e8265655331"
        "690d2a22833073de7d7c15f39d8f5b41"
    ),
    "supervised_mix": (
        "023eea77d6f20bc164482e4e93fea74f"
        "bbd56c8dc4ae245ea8e8878ce44dd92b"
    ),
}

#: Message of the unbounded-ARQ retry storm in ``resilience_mix(400)``.
GOLDEN_DIVERGENCE = (
    "unbounded ARQ exceeded 10000 tries on one payload: the channel never "
    "recovered (retry storm); use a bounded ARQConfig to keep per-payload "
    "delay finite"
)

GOLDEN_ARQ = ARQConfig(max_retries=3, timeout_s=2e-3, backoff_factor=2.0)

#: ``(crc, retransmit_on_corrupt)`` of the three integrity wire formats.
WIRE_FORMATS = {
    "integrity_plain": (False, False),
    "integrity_detect": (True, False),
    "integrity_retransmit": (True, True),
}


def golden_simulator(sigma=0.0):
    return CrossEndSimulator(
        synthetic_metrics(), period_s=0.25, jitter_sigma=sigma, seed=3
    )


def run_integrity(name, types, sigma=0.0):
    crc, retransmit = WIRE_FORMATS[name]
    integrity = IntegrityConfig(
        framing=FramingConfig(crc=crc),
        retransmit_on_corrupt=retransmit,
        values_per_payload=8,
    )
    return integrity_campaign(types).run(
        golden_simulator(sigma), 300, arq=GOLDEN_ARQ, integrity=integrity,
    )


def supervised_mix(types=BUILTIN_TYPES, seed=17):
    """Every fault type at once: loss, erasure, bitflip, windows."""
    burst, corruption, outage, brownout, stall = types
    return FaultCampaign(
        [
            burst(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
            corruption(0.05, mode="bitflip"),
            corruption(0.02),
            outage(start_event=60, n_events=40),
            brownout(start_event=150, n_events=6),
            stall(start_event=220, n_events=10, extra_delay_s=2e-3),
        ],
        seed=seed,
    )


def run_supervised(campaign, sigma=0.0):
    """Integrity (CRC + retransmit), breaker, policy and cache together."""
    return campaign.run(
        golden_simulator(sigma),
        300,
        arq=GOLDEN_ARQ,
        policy=GracefulDegradationPolicy(
            outage_threshold=3, recovery_hysteresis=8
        ),
        fallback_metrics=replace(
            synthetic_metrics(), sensor_tx_j=2e-7, aggregator_radio_j=2e-7
        ),
        cache=LastKnownGoodCache(max_staleness=16),
        integrity=IntegrityConfig(values_per_payload=8),
        breaker=LinkCircuitBreaker(
            BreakerConfig(
                failure_threshold=3, probe_backoff_events=4, probe_retries=1
            )
        ),
    )


class TestCampaignGolden:
    @RUNNERS
    def test_resilience_mix(self, types):
        report = resilience_mix(400, types=types).run(
            golden_simulator(), 400, arq=GOLDEN_ARQ
        )
        assert report_digest(report) == GOLDEN_DIGESTS["resilience_mix"]

    @RUNNERS
    @pytest.mark.parametrize("name", sorted(WIRE_FORMATS))
    def test_integrity_wire_formats(self, types, name):
        report = run_integrity(name, types)
        assert report_digest(report) == GOLDEN_DIGESTS[name]

    @RUNNERS
    def test_supervised_mix(self, types):
        report = run_supervised(supervised_mix(types))
        assert report_digest(report) == GOLDEN_DIGESTS["supervised_mix"]
        # The mix exercises every branch of the shared loop.
        assert report.fallback_events > 0
        assert report.n_degraded > 0 and report.n_dropped > 0
        assert report.corruptions_detected > 0
        assert any(r.tries == 0 and r.latency_s > 0 for r in report.records)

    @RUNNERS
    def test_unbounded_divergence_message(self, types):
        with pytest.raises(SimulationError) as exc:
            resilience_mix(400, types=types).run(
                golden_simulator(), 400, arq=None
            )
        assert str(exc.value) == GOLDEN_DIVERGENCE


class TestCampaignJitter:
    """Lognormal stage jitter on: both fault sources draw it identically."""

    def test_resilience_mix_identical(self):
        jittered = golden_simulator(0.3)
        slow = resilience_mix(400, types=SUBCLASS_TYPES).run(
            jittered, 400, arq=GOLDEN_ARQ
        )
        fast = resilience_mix(400).run(jittered, 400, arq=GOLDEN_ARQ)
        assert reports_identical(slow, fast)
        # The jitter really is on: the report differs from the jitter-free one.
        assert report_digest(fast) != GOLDEN_DIGESTS["resilience_mix"]

    @pytest.mark.parametrize("name", sorted(WIRE_FORMATS))
    def test_integrity_wire_formats_identical(self, name):
        slow = run_integrity(name, SUBCLASS_TYPES, sigma=0.3)
        fast = run_integrity(name, BUILTIN_TYPES, sigma=0.3)
        assert reports_identical(slow, fast)


class TestSubclassOracle:
    """Subclassed built-ins run on the reference source and must agree."""

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_reproduces_builtin_fast_path(self, sigma):
        oracle = supervised_mix(SUBCLASS_TYPES)
        assert not oracle.supports_fast()
        reference = run_supervised(oracle, sigma)
        fast = run_supervised(supervised_mix(), sigma)
        assert reports_identical(reference, fast)


class PatternLoss(FaultModel):
    """Deterministic per-attempt loss: a pure function of (event, attempt)."""

    def try_lost(self, event_index, attempt):
        if 5 <= event_index % 17 < 9:
            return True
        return (event_index * 7 + attempt * 3) % 5 < 2


class TestRetryLoopMatchesARQ:
    """The campaign's inlined retry loop is pinned to ``ARQConfig.simulate``.

    ``PatternLoss`` is a custom fault, so these runs take the reference
    fault source; both sources share the retry loop under test.  The
    period is long enough that no stage ever queues.
    """

    T_LINK = synthetic_metrics().delay_link_s

    def expected(self, arq, n_events, breaker=None):
        """Per-event ``ARQOutcome`` (None when blocked) from the reference."""
        pattern = PatternLoss()
        probe_arq = None if breaker is None else breaker.probe_arq(arq)
        outcomes = []
        for k in range(n_events):
            decision = "allow" if breaker is None else breaker.decide(k)
            if decision == "block":
                outcomes.append(None)
                continue
            policy_arq = probe_arq if decision == "probe" else arq
            outcome = policy_arq.simulate(
                lambda attempt: pattern.try_lost(k, attempt), self.T_LINK
            )
            if breaker is not None:
                breaker.record(k, outcome.delivered)
            outcomes.append(outcome)
        return outcomes

    def check(self, report, outcomes):
        metrics = synthetic_metrics()
        assert report.n_events == len(outcomes)
        for record, outcome in zip(report.records, outcomes):
            if outcome is None:
                assert record.tries == 0
                continue
            assert record.tries == outcome.tries
            assert (record.status == "delivered") == outcome.delivered
            link = record.latency_s - metrics.delay_front_s
            if outcome.delivered:
                link -= metrics.delay_back_s
            assert link == pytest.approx(outcome.delay_s, rel=1e-12)

    @pytest.mark.parametrize("max_retries", [0, 3])
    def test_bounded(self, max_retries):
        arq = ARQConfig(max_retries=max_retries, timeout_s=2e-3)
        report = FaultCampaign([PatternLoss()]).run(
            CrossEndSimulator(synthetic_metrics(), period_s=1.0),
            120, arq=arq, cache=LastKnownGoodCache(),
        )
        self.check(report, self.expected(arq, 120))

    def test_breaker_probe_budget(self):
        arq = ARQConfig(max_retries=3, timeout_s=2e-3)
        config = BreakerConfig(
            failure_threshold=1, probe_backoff_events=2, probe_retries=1
        )
        report = FaultCampaign([PatternLoss()]).run(
            CrossEndSimulator(synthetic_metrics(), period_s=1.0),
            120, arq=arq, cache=LastKnownGoodCache(),
            breaker=LinkCircuitBreaker(config),
        )
        outcomes = self.expected(arq, 120, LinkCircuitBreaker(config))
        assert None in outcomes
        assert any(o is not None and o.tries == 2 and not o.delivered
                   for o in outcomes)
        self.check(report, outcomes)

    @RUNNERS
    def test_unbounded_retry_storm(self, types):
        outage = types[2]
        with pytest.raises(SimulationError) as reference:
            UNBOUNDED_ARQ.simulate(lambda attempt: True, self.T_LINK)
        with pytest.raises(SimulationError) as campaign:
            FaultCampaign([outage(start_event=5, n_events=1)]).run(
                CrossEndSimulator(synthetic_metrics(), period_s=1.0),
                20, arq=None,
            )
        assert str(campaign.value) == str(reference.value)
