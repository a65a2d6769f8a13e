"""Tests for the biosignal substrate: noise, waveforms, datasets, windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.signals.datasets import (
    CASE_ORDER,
    TABLE1_CASES,
    BiosignalDataset,
    load_case,
    table1,
)
from repro.signals.noise import baseline_wander, pink_noise, powerline_hum, white_noise
from repro.signals.segmentation import segment_stream
from repro.signals.waveforms import ECGGenerator, EEGGenerator, EMGGenerator


class TestNoise:
    def test_white_noise_statistics(self, rng):
        x = white_noise(rng, 20000, amplitude=2.0)
        assert abs(x.mean()) < 0.1
        assert x.std() == pytest.approx(2.0, rel=0.05)

    def test_pink_noise_spectrum_slopes_down(self, rng):
        x = pink_noise(rng, 8192)
        spectrum = np.abs(np.fft.rfft(x)) ** 2
        low = spectrum[1:50].mean()
        high = spectrum[-500:].mean()
        assert low > 5 * high

    def test_pink_noise_single_sample(self, rng):
        assert pink_noise(rng, 1).shape == (1,)

    def test_wander_and_hum_bounded(self, rng):
        w = baseline_wander(rng, 1000, 250.0, amplitude=0.1)
        h = powerline_hum(rng, 1000, 250.0, amplitude=0.05)
        assert np.abs(w).max() <= 0.1 + 1e-9
        assert np.abs(h).max() <= 0.05 + 1e-9

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            white_noise(rng, 0)
        with pytest.raises(ConfigurationError):
            baseline_wander(rng, 10, 0.0)


class TestWaveforms:
    @pytest.mark.parametrize(
        "generator",
        [ECGGenerator(82), EEGGenerator(128), EMGGenerator(132)],
        ids=["ecg", "eeg", "emg"],
    )
    def test_segment_shape(self, generator, rng):
        seg = generator.generate(rng, 0)
        assert seg.shape == (generator.segment_length,)
        assert np.isfinite(seg).all()

    def test_ecg_r_peak_dominates(self, rng):
        seg = ECGGenerator(128, noise_level=0.01).generate(rng, 0)
        # The R wave is at ~42% of the beat and is the global maximum.
        peak = np.argmax(seg)
        assert 0.3 * 128 < peak < 0.55 * 128

    def test_classes_are_statistically_different(self, rng):
        gen = ECGGenerator(128)
        class0 = np.stack([gen.generate(rng, 0) for _ in range(40)])
        class1 = np.stack([gen.generate(rng, 1) for _ in range(40)])
        # The T-wave region (around 70%) is depressed in class 1.
        region = slice(int(0.66 * 128), int(0.74 * 128))
        assert class0[:, region].mean() > class1[:, region].mean()

    def test_batch_generation_balanced(self, rng):
        segs, labels = EEGGenerator(64).generate_batch(rng, 50, class_balance=0.5)
        assert segs.shape == (50, 64)
        assert labels.sum() == 25

    def test_batch_invalid_args(self, rng):
        gen = EMGGenerator(64)
        with pytest.raises(ConfigurationError):
            gen.generate_batch(rng, 0)
        with pytest.raises(ConfigurationError):
            gen.generate_batch(rng, 10, class_balance=1.5)

    def test_label_validation(self, rng):
        with pytest.raises(ConfigurationError):
            ECGGenerator(64).generate(rng, 2)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            ECGGenerator(0)
        with pytest.raises(ConfigurationError):
            EEGGenerator(64, difficulty=0.0)


class TestDatasets:
    def test_table1_matches_paper(self):
        rows = {r["symbol"]: r for r in table1()}
        assert rows["C1"]["segment_length"] == 82
        assert rows["C1"]["segment_number"] == 1162
        assert rows["C2"]["segment_length"] == 136
        assert rows["C2"]["segment_number"] == 884
        assert rows["E1"]["segment_length"] == 128
        assert rows["E1"]["segment_number"] == 1000
        assert rows["M1"]["segment_length"] == 132
        assert rows["M1"]["segment_number"] == 1200
        assert [r["symbol"] for r in table1()] == list(CASE_ORDER)

    def test_load_case_default_matches_table1(self):
        ds = load_case("E2")
        assert ds.n_segments == TABLE1_CASES["E2"].segment_number
        assert ds.segment_length == 128

    def test_load_case_subsample_keeps_length(self):
        ds = load_case("M2", n_segments=30)
        assert ds.n_segments == 30
        assert ds.segment_length == 132

    def test_load_case_deterministic(self):
        a = load_case("C1", 20)
        b = load_case("C1", 20)
        assert np.array_equal(a.segments, b.segments)
        assert np.array_equal(a.labels, b.labels)

    def test_cases_differ(self):
        a = load_case("E1", 20)
        b = load_case("E2", 20)
        assert not np.array_equal(a.segments, b.segments)

    def test_balanced_labels(self):
        n0, n1 = load_case("C2", 40).class_counts()
        assert n0 == n1 == 20

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigurationError):
            load_case("Z9")

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            load_case("C1", 0)

    def test_dataset_validation(self):
        with pytest.raises(ConfigurationError):
            BiosignalDataset(
                spec=TABLE1_CASES["C1"],
                segments=np.zeros((3, 5)),
                labels=np.zeros(2),
            )


class TestSegmentation:
    def test_stream_reassembly(self):
        chunks = [np.arange(3.0), np.arange(3.0, 8.0), np.arange(8.0, 9.0)]
        windows = list(segment_stream(chunks, 4))
        assert len(windows) == 2
        assert np.allclose(np.concatenate(windows), np.arange(8.0))

    def test_short_input_empty(self):
        assert list(segment_stream([np.arange(2.0)], 5)) == []

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            list(segment_stream([np.arange(4.0)], 0))
        with pytest.raises(ConfigurationError):
            list(segment_stream([np.zeros((2, 2))], 2))

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=20),
        st.integers(1, 10),
    )
    @settings(max_examples=50)
    def test_stream_preserves_sample_order(self, chunk_sizes, window):
        total = sum(chunk_sizes)
        samples = np.arange(float(total))
        chunks, pos = [], 0
        for size in chunk_sizes:
            chunks.append(samples[pos : pos + size])
            pos += size
        windows = list(segment_stream(chunks, window))
        assert len(windows) == total // window
        if windows:
            flat = np.concatenate(windows)
            assert np.allclose(flat, samples[: len(flat)])
