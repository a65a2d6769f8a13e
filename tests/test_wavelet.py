"""Unit and property tests for the Haar discrete wavelet transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.wavelet import dwt_band_lengths, dwt_multilevel, dwt_single_level
from repro.errors import ConfigurationError

SIGNALS = arrays(
    np.float64,
    st.sampled_from([8, 16, 32, 64, 128]),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
)


HAAR_LOWPASS = np.array([2**-0.5, 2**-0.5])
HAAR_HIGHPASS = np.array([2**-0.5, -(2**-0.5)])


def reconstruct_single_level(approx, detail):
    """Inverse of :func:`dwt_single_level`, the invertibility oracle.

    Upsamples both bands by two, filters with the time-reversed analysis
    filters (the Haar wavelet is orthogonal, so self-dual up to reversal)
    and sums.
    """
    if len(approx) != len(detail):
        raise ConfigurationError("approximation/detail lengths differ")
    n = 2 * len(approx)
    up_a = np.zeros(n)
    up_d = np.zeros(n)
    up_a[::2] = approx
    up_d[::2] = detail

    def _synthesis(upsampled, taps):
        extended = np.concatenate([upsampled[-(len(taps) - 1):], upsampled])
        return np.convolve(extended, taps, mode="valid")[:n]

    return _synthesis(up_a, HAAR_LOWPASS) + _synthesis(up_d, HAAR_HIGHPASS)


class TestFilters:
    def test_haar_taps(self):
        # The impulse responses of one level are the analysis taps.
        a0, d0 = dwt_single_level([1.0, 0.0])
        a1, d1 = dwt_single_level([0.0, 1.0])
        assert np.allclose([a0[0], a1[0]], HAAR_LOWPASS)
        assert np.allclose([d0[0], d1[0]], HAAR_HIGHPASS)


class TestSingleLevel:
    def test_output_lengths(self):
        a, d = dwt_single_level(np.arange(16.0))
        assert len(a) == 8 and len(d) == 8

    def test_haar_constant_signal(self):
        a, d = dwt_single_level(np.ones(8))
        assert np.allclose(a, np.sqrt(2))
        assert np.allclose(d, 0.0)

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigurationError):
            dwt_single_level(np.arange(7.0))

    def test_batch_is_row_by_row(self):
        # The last axis is the segment: a batch gives each row's bands.
        X = np.random.default_rng(5).normal(size=(3, 8))
        a, d = dwt_single_level(X)
        for i in range(3):
            a_row, d_row = dwt_single_level(X[i])
            assert a[i].tobytes() == a_row.tobytes()
            assert d[i].tobytes() == d_row.tobytes()
        with pytest.raises(ConfigurationError):
            dwt_single_level(np.float64(1.0))

    @given(SIGNALS)
    @settings(max_examples=60)
    def test_energy_preserved(self, signal):
        a, d = dwt_single_level(signal)
        assert np.isclose(
            (a**2).sum() + (d**2).sum(), (signal**2).sum(), rtol=1e-9, atol=1e-9
        )

    @given(SIGNALS)
    @settings(max_examples=60)
    def test_perfect_reconstruction(self, signal):
        a, d = dwt_single_level(signal)
        restored = reconstruct_single_level(a, d)
        assert np.allclose(restored, signal, atol=1e-9)

    def test_reconstruct_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            reconstruct_single_level(np.zeros(4), np.zeros(5))

    @given(SIGNALS)
    @settings(max_examples=40)
    def test_linearity(self, signal):
        a1, d1 = dwt_single_level(signal)
        a2, d2 = dwt_single_level(3.0 * signal)
        assert np.allclose(a2, 3.0 * a1)
        assert np.allclose(d2, 3.0 * d1)


class TestMultilevel:
    def test_paper_band_lengths(self):
        assert dwt_band_lengths(128, 5) == [64, 32, 16, 8, 4, 4]

    def test_band_lengths_match_transform(self):
        bands = dwt_multilevel(np.random.default_rng(0).normal(size=128), 5)
        assert [len(b) for b in bands] == [64, 32, 16, 8, 4, 4]

    def test_single_level_case(self):
        bands = dwt_multilevel(np.arange(8.0), 1)
        assert [len(b) for b in bands] == [4, 4]

    def test_indivisible_length_rejected(self):
        with pytest.raises(ConfigurationError):
            dwt_multilevel(np.arange(20.0), 3)
        with pytest.raises(ConfigurationError):
            dwt_band_lengths(20, 3)

    def test_invalid_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            dwt_multilevel(np.arange(8.0), 0)

    @given(SIGNALS)
    @settings(max_examples=40)
    def test_multilevel_energy_preserved(self, signal):
        levels = 3
        bands = dwt_multilevel(signal, levels)
        total = sum((b**2).sum() for b in bands)
        assert np.isclose(total, (signal**2).sum(), rtol=1e-9, atol=1e-9)

    def test_matches_iterated_single_level(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=32)
        bands = dwt_multilevel(x, 2)
        a1, d1 = dwt_single_level(x)
        a2, d2 = dwt_single_level(a1)
        assert np.allclose(bands[0], d1)
        assert np.allclose(bands[1], a2)
        assert np.allclose(bands[2], d2)
