"""Unit and property tests for the eight statistical features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.features import (
    FEATURE_NAMES,
    compute_feature,
    crossing_count,
    feature_vector,
    kurtosis,
    maximum,
    mean,
    minimum,
    multiband_feature_matrix,
    operation_counts,
    skewness,
    standard_deviation,
    variance,
    zero_crossings,
)
from repro.core.layout import FeatureLayout
from repro.errors import ConfigurationError

SEGMENTS = arrays(
    np.float64,
    st.integers(min_value=4, max_value=128),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
)


class TestBasics:
    def test_feature_names_are_eight(self):
        assert len(FEATURE_NAMES) == 8
        assert FEATURE_NAMES == (
            "max", "min", "mean", "var", "std", "czero", "skew", "kurt",
        )

    def test_known_values(self):
        seg = [1.0, 2.0, 3.0, 4.0]
        assert maximum(seg) == 4.0
        assert minimum(seg) == 1.0
        assert mean(seg) == 2.5
        assert variance(seg) == pytest.approx(1.25)
        assert standard_deviation(seg) == pytest.approx(np.sqrt(1.25))

    def test_constant_segment_degenerate_moments(self):
        seg = np.full(16, 3.3)
        assert variance(seg) == pytest.approx(0.0, abs=1e-12)
        assert skewness(seg) == 0.0
        assert kurtosis(seg) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean([])

    def test_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            maximum(np.zeros((2, 2)))

    def test_unknown_feature_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_feature("median", [1, 2, 3])


class TestCrossings:
    def test_alternating_signal(self):
        seg = np.array([1.0, -1.0, 1.0, -1.0])
        assert crossing_count(seg, 0.0) == 3

    def test_monotone_signal_no_crossings(self):
        assert crossing_count(np.arange(1.0, 9.0), 0.0) == 0

    def test_zero_run_counted_once(self):
        seg = np.array([1.0, 0.0, 0.0, -1.0])
        assert crossing_count(seg, 0.0) == 1

    def test_czero_uses_mean_level(self):
        seg = np.array([10.0, 12.0, 10.0, 12.0])
        assert zero_crossings(seg) == 3


class TestMomentProperties:
    @given(SEGMENTS)
    @settings(max_examples=80)
    def test_ordering(self, seg):
        eps = 1e-9 * max(1.0, np.abs(seg).max())
        assert minimum(seg) - eps <= mean(seg) <= maximum(seg) + eps

    @given(SEGMENTS)
    @settings(max_examples=80)
    def test_std_squares_to_var(self, seg):
        assert standard_deviation(seg) ** 2 == pytest.approx(
            max(variance(seg), 0.0), abs=1e-8
        )

    @given(SEGMENTS)
    @settings(max_examples=80)
    def test_variance_nonnegative(self, seg):
        assert variance(seg) >= -1e-9

    @given(SEGMENTS, st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=60)
    def test_shift_invariance_of_central_moments(self, seg, shift):
        shifted = seg + shift
        assert variance(shifted) == pytest.approx(variance(seg), abs=1e-6)
        assert skewness(shifted) == pytest.approx(skewness(seg), abs=1e-5)
        assert kurtosis(shifted) == pytest.approx(kurtosis(seg), abs=1e-5)

    @given(SEGMENTS)
    @settings(max_examples=60)
    def test_negation_flips_skew(self, seg):
        assert skewness(-seg) == pytest.approx(-skewness(seg), abs=1e-6)

    @given(SEGMENTS)
    @settings(max_examples=60)
    def test_kurtosis_lower_bound(self, seg):
        # m4 / m2^2 >= 1 by Cauchy-Schwarz (0 only for constant input).
        k = kurtosis(seg)
        assert k == 0.0 or k >= 1.0 - 1e-9


class TestVectorAndExtractor:
    def test_feature_vector_ordering(self):
        seg = np.array([1.0, -1.0, 2.0, -2.0])
        vec = feature_vector(seg)
        assert vec[0] == maximum(seg)
        assert vec[1] == minimum(seg)
        assert len(vec) == 8

    def test_extractor_concatenates_domains(self):
        # FeatureLayout.extract is the reference feature front: one
        # feature_vector per domain (time, then DWT bands), concatenated.
        layout = FeatureLayout(segment_length=64)
        seg = np.sin(np.arange(64.0))
        vec = layout.extract(seg)
        parts = [feature_vector(d) for d in layout.domain_segments(seg)]
        assert np.array_equal(vec, np.concatenate(parts))
        assert len(vec) == layout.n_features == 8 * layout.n_domains
        assert layout.feature_label(8) == "max@D1"

    def test_extractor_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            feature_vector([])

    def test_extractor_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            FeatureLayout(segment_length=64, feature_names=("max", "nope"))
        with pytest.raises(ConfigurationError):
            feature_vector([1.0, 2.0], ["max", "nope"])


class TestOperationCounts:
    @pytest.mark.parametrize("name", FEATURE_NAMES)
    def test_counts_are_positive(self, name):
        counts = operation_counts(name, 64)
        assert counts and all(v >= 0 for v in counts.values())

    def test_std_counts_only_the_sqrt(self):
        # Cell-level reuse (Fig. 5): Std adds one super op on top of Var.
        assert operation_counts("std", 128) == {"super": 1}

    def test_counts_grow_with_segment_length(self):
        small = sum(operation_counts("skew", 16).values())
        large = sum(operation_counts("skew", 128).values())
        assert large > small

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            operation_counts("max", 0)
        with pytest.raises(ConfigurationError):
            operation_counts("median", 8)


def _crossing_count_loop(segment, level=0.0):
    """Sequential reference for the vectorised sign propagation."""
    last = 1.0
    signs = []
    for value in segment:
        s = float(np.sign(value - level))
        if s == 0.0:
            s = last
        signs.append(s)
        last = s
    return float(sum(a != b for a, b in zip(signs[1:], signs[:-1])))


class TestBatchFeatureMatrix:
    @given(SEGMENTS)
    @settings(max_examples=50, deadline=None)
    def test_czero_matches_sequential_loop(self, seg):
        level = float(seg.mean())
        assert crossing_count(seg, level) == _crossing_count_loop(seg, level)

    @given(
        arrays(
            np.float64,
            st.integers(min_value=4, max_value=40),
            elements=st.integers(min_value=-3, max_value=3).map(float),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_czero_with_exact_zero_runs(self, seg):
        # Integer-valued samples make exact equal-to-level runs likely,
        # exercising the carried-sign rule rather than the generic path.
        assert crossing_count(seg) == _crossing_count_loop(seg)

    def test_czero_constant_segment_is_zero(self):
        batch = np.full((5, 64), 3.25)
        col = multiband_feature_matrix([batch], ["czero"])
        assert np.array_equal(col, np.zeros((5, 1)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matrix_rows_match_feature_vectors(self, seed):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(6, 48)) * rng.uniform(0.1, 10)
        out = multiband_feature_matrix([batch])
        assert out.shape == (6, 8)
        for i in range(6):
            assert np.allclose(out[i], feature_vector(batch[i]), atol=1e-9)

    def test_subset_and_order_of_names(self):
        batch = np.random.default_rng(3).normal(size=(4, 32))
        out = multiband_feature_matrix([batch], ["kurt", "max", "czero"])
        assert out.shape == (4, 3)
        for i in range(4):
            assert np.allclose(
                out[i], feature_vector(batch[i], ["kurt", "max", "czero"]),
                atol=1e-9,
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            multiband_feature_matrix([np.zeros(8)])
        with pytest.raises(ConfigurationError):
            multiband_feature_matrix([np.zeros((2, 0))])
        with pytest.raises(ConfigurationError):
            multiband_feature_matrix([np.zeros((2, 8))], ["max", "bogus"])
