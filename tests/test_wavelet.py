"""Unit and property tests for the discrete wavelet transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.wavelet import (
    WaveletFilter,
    dwt_band_lengths,
    dwt_multilevel,
    dwt_multilevel_batch,
    dwt_single_level,
    dwt_single_level_batch,
)
from repro.errors import ConfigurationError

SIGNALS = arrays(
    np.float64,
    st.sampled_from([8, 16, 32, 64, 128]),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
)


def reconstruct_single_level(approx, detail, wavelet="haar"):
    """Inverse of :func:`dwt_single_level`, the invertibility oracle.

    Upsamples both bands by two, filters with the time-reversed analysis
    filters (orthogonal wavelets are self-dual up to reversal) and sums.
    """
    if isinstance(wavelet, str):
        wavelet = WaveletFilter.by_name(wavelet)
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

    return _synthesis(up_a, wavelet.lowpass) + _synthesis(up_d, wavelet.highpass)


class TestFilters:
    def test_haar_taps(self):
        haar = WaveletFilter.by_name("haar")
        assert haar.length == 2
        assert np.allclose(haar.lowpass, [2**-0.5, 2**-0.5])

    def test_db2_orthonormality(self):
        db2 = WaveletFilter.by_name("db2")
        assert np.isclose((db2.lowpass**2).sum(), 1.0)
        assert np.isclose((db2.highpass**2).sum(), 1.0)
        assert np.isclose(db2.lowpass @ db2.highpass, 0.0)

    def test_unknown_wavelet_rejected(self):
        with pytest.raises(ConfigurationError):
            WaveletFilter.by_name("sym9")


class TestDaubechiesConstruction:
    def test_db2_matches_closed_form(self):
        from repro.dsp.wavelet import daubechies_lowpass

        assert np.allclose(
            daubechies_lowpass(2), WaveletFilter.by_name("db2").lowpass
        )

    def test_db1_is_haar(self):
        from repro.dsp.wavelet import daubechies_lowpass

        assert np.allclose(
            daubechies_lowpass(1), WaveletFilter.by_name("haar").lowpass
        )

    @pytest.mark.parametrize("order", range(1, 9))
    def test_orthonormality(self, order):
        h = WaveletFilter.by_name(f"db{order}").lowpass
        assert len(h) == 2 * order
        assert np.isclose(h.sum(), np.sqrt(2))
        assert np.isclose((h**2).sum(), 1.0)
        for k in range(1, order):
            shifted = np.zeros_like(h)
            shifted[2 * k :] = h[: len(h) - 2 * k]
            assert abs(h @ shifted) < 1e-8

    @pytest.mark.parametrize("order", range(2, 9))
    def test_vanishing_moments(self, order):
        g = WaveletFilter.by_name(f"db{order}").highpass
        for moment in range(order):
            assert abs(sum((k**moment) * g[k] for k in range(len(g)))) < 1e-6

    @pytest.mark.parametrize("order", [3, 5, 8])
    def test_perfect_reconstruction(self, order, rng):
        w = WaveletFilter.by_name(f"db{order}")
        x = rng.normal(size=64)
        a, d = dwt_single_level(x, w)
        assert np.allclose(reconstruct_single_level(a, d, w), x, atol=1e-8)

    def test_order_bounds(self):
        from repro.dsp.wavelet import daubechies_lowpass

        with pytest.raises(ConfigurationError):
            daubechies_lowpass(0)
        with pytest.raises(ConfigurationError):
            daubechies_lowpass(9)

    def test_quadrature_mirror_orthogonal_to_lowpass(self):
        from repro.dsp.wavelet import quadrature_mirror

        h = WaveletFilter.by_name("db4").lowpass
        g = quadrature_mirror(h)
        assert np.isclose(h @ g, 0.0, atol=1e-12)


class TestSingleLevel:
    def test_output_lengths(self):
        a, d = dwt_single_level(np.arange(16.0), WaveletFilter.by_name("haar"))
        assert len(a) == 8 and len(d) == 8

    def test_haar_constant_signal(self):
        a, d = dwt_single_level(np.ones(8), WaveletFilter.by_name("haar"))
        assert np.allclose(a, np.sqrt(2))
        assert np.allclose(d, 0.0)

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigurationError):
            dwt_single_level(np.arange(7.0), WaveletFilter.by_name("haar"))

    def test_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            dwt_single_level(np.zeros((4, 4)), WaveletFilter.by_name("haar"))

    @given(SIGNALS, st.sampled_from(["haar", "db2"]))
    @settings(max_examples=60)
    def test_energy_preserved(self, signal, name):
        a, d = dwt_single_level(signal, WaveletFilter.by_name(name))
        assert np.isclose(
            (a**2).sum() + (d**2).sum(), (signal**2).sum(), rtol=1e-9, atol=1e-9
        )

    @given(SIGNALS, st.sampled_from(["haar", "db2"]))
    @settings(max_examples=60)
    def test_perfect_reconstruction(self, signal, name):
        a, d = dwt_single_level(signal, WaveletFilter.by_name(name))
        restored = reconstruct_single_level(a, d, name)
        assert np.allclose(restored, signal, atol=1e-9)

    def test_reconstruct_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            reconstruct_single_level(np.zeros(4), np.zeros(5))

    @given(SIGNALS)
    @settings(max_examples=40)
    def test_linearity(self, signal):
        haar = WaveletFilter.by_name("haar")
        a1, d1 = dwt_single_level(signal, haar)
        a2, d2 = dwt_single_level(3.0 * signal, haar)
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
        haar = WaveletFilter.by_name("haar")
        bands = dwt_multilevel(x, 2, haar)
        a1, d1 = dwt_single_level(x, haar)
        a2, d2 = dwt_single_level(a1, haar)
        assert np.allclose(bands[0], d1)
        assert np.allclose(bands[1], a2)
        assert np.allclose(bands[2], d2)


class TestBatchedDWT:
    @pytest.mark.parametrize("name", ["haar", "db2", "db3"])
    def test_single_level_matches_scalar(self, name, rng):
        batch = rng.normal(size=(6, 64))
        a_b, d_b = dwt_single_level_batch(batch, name)
        for i in range(6):
            a, d = dwt_single_level(batch[i], WaveletFilter.by_name(name))
            assert np.allclose(a_b[i], a, atol=1e-12)
            assert np.allclose(d_b[i], d, atol=1e-12)

    @pytest.mark.parametrize("name", ["haar", "db2", "db3"])
    @pytest.mark.parametrize("levels", [1, 3, 5])
    def test_multilevel_matches_scalar(self, name, levels, rng):
        batch = rng.normal(size=(4, 128))
        bands_b = dwt_multilevel_batch(batch, levels, name)
        for i in range(4):
            bands = dwt_multilevel(batch[i], levels, name)
            assert len(bands_b) == len(bands)
            for bb, rb in zip(bands_b, bands):
                assert np.allclose(bb[i], rb, atol=1e-12)

    @given(SIGNALS)
    @settings(max_examples=25, deadline=None)
    def test_property_batch_of_one_row(self, signal):
        a_b, d_b = dwt_single_level_batch(signal[None, :], "db2")
        a, d = dwt_single_level(signal, WaveletFilter.by_name("db2"))
        assert np.allclose(a_b[0], a, atol=1e-9)
        assert np.allclose(d_b[0], d, atol=1e-9)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            dwt_single_level_batch(rng.normal(size=16))
        with pytest.raises(ConfigurationError):
            dwt_single_level_batch(rng.normal(size=(3, 7)))
        with pytest.raises(ConfigurationError):
            dwt_multilevel_batch(rng.normal(size=(3, 20)), 3)
        with pytest.raises(ConfigurationError):
            dwt_multilevel_batch(rng.normal(size=(3, 16)), 0)
