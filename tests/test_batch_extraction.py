"""Tests: vectorised batch extraction matches the reference path, bit for bit.

The batch path and the per-row reference run the same arithmetic: the
Haar pair sums ``(x0 +- x1)/sqrt(2)`` on the last axis and the moment
expressions ``m3 / np.power(m2, 1.5)`` and ``m4 / (m2 * m2)``, so every
value, zero-crossing counts included, is the same float.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import FeatureLayout
from repro.dsp.batch import batch_extract_matrix
from repro.dsp.wavelet import dwt_multilevel, dwt_single_level
from repro.errors import ConfigurationError
from repro.ml.multiclass import OneVsRestSubspaceClassifier
from repro.signals.datasets import CASE_ORDER, load_case


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchHaar:
    def test_single_level_matches_reference(self, rng):
        X = rng.normal(size=(7, 32))
        a_b, d_b = dwt_single_level(X)
        for i in range(7):
            a, d = dwt_single_level(X[i])
            assert _same_bits(a_b[i], a)
            assert _same_bits(d_b[i], d)

    def test_multilevel_matches_reference(self, rng):
        X = rng.normal(size=(5, 128))
        batched = dwt_multilevel(X, 5)
        for i in range(5):
            reference = dwt_multilevel(X[i], 5)
            for b_band, r_band in zip(batched, reference):
                assert _same_bits(b_band[i], r_band)

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_multilevel_matches_reference_at_every_depth(self, seed, levels):
        X = np.random.default_rng(seed).normal(size=(3, 128))
        batched = dwt_multilevel(X, levels)
        for i in range(3):
            reference = dwt_multilevel(X[i], levels)
            assert len(batched) == len(reference) == levels + 1
            for b_band, r_band in zip(batched, reference):
                assert _same_bits(b_band[i], r_band)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            dwt_single_level(rng.normal(size=(3, 7)))
        with pytest.raises(ConfigurationError):
            dwt_multilevel(rng.normal(size=(3, 20)), 3)
        with pytest.raises(ConfigurationError):
            dwt_multilevel(rng.normal(size=(3, 16)), 0)


class TestBatchExtract:
    @pytest.mark.parametrize("length", [82, 128, 136])
    def test_matches_reference_extraction(self, length, rng):
        layout = FeatureLayout(segment_length=length)
        X = rng.normal(size=(12, length))
        fast = batch_extract_matrix(X, layout)
        slow = layout.extract_matrix(X)
        assert fast.shape == slow.shape == (12, 56)
        assert _same_bits(fast, slow)

    @pytest.mark.parametrize("symbol", CASE_ORDER)
    def test_matches_reference_on_table1_cases(self, symbol):
        ds = load_case(symbol, n_segments=60)
        layout = FeatureLayout(segment_length=ds.segment_length)
        fast = batch_extract_matrix(ds.segments, layout)
        slow = np.array([layout.extract(seg) for seg in ds.segments])
        assert _same_bits(fast, slow)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_random(self, seed):
        rng = np.random.default_rng(seed)
        layout = FeatureLayout(segment_length=96)
        X = rng.normal(size=(4, 96)) * rng.uniform(0.1, 10)
        assert _same_bits(batch_extract_matrix(X, layout), layout.extract_matrix(X))

    def test_constant_rows_degenerate_moments(self):
        layout = FeatureLayout(segment_length=128)
        X = np.full((3, 128), 2.5)
        out = batch_extract_matrix(X, layout)
        slow = layout.extract_matrix(X)
        assert _same_bits(out, slow)

    def test_validation(self, rng):
        layout = FeatureLayout(segment_length=128)
        with pytest.raises(ConfigurationError):
            batch_extract_matrix(rng.normal(size=128), layout)
        with pytest.raises(ConfigurationError):
            batch_extract_matrix(rng.normal(size=(3, 64)), layout)

    def test_meaningfully_faster(self, rng):
        import time

        layout = FeatureLayout(segment_length=128)
        X = rng.normal(size=(150, 128))
        t0 = time.perf_counter()
        layout.extract_matrix(X)
        slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        batch_extract_matrix(X, layout)
        fast = time.perf_counter() - t0
        assert fast < slow  # typically ~10x; assert direction only


class TestEnsembleBatchScorer:
    """The ensemble's own batch path: one Gram-matrix call per member over
    the whole batch, fused once."""

    def _normalised(self, engine, dataset):
        raw = batch_extract_matrix(dataset.segments, engine.layout)
        return engine.normalizer.transform(raw)

    def test_scores_bitwise_identical(self, tiny_engine, tiny_dataset):
        X = self._normalised(tiny_engine, tiny_dataset)
        ensemble = tiny_engine.ensemble
        per_member = np.column_stack(
            [
                m.classifier.decision_function(X[:, list(m.feature_indices)])
                for m in ensemble.members
            ]
        )
        fused = per_member @ ensemble.fusion.weights + ensemble.fusion.intercept
        assert np.array_equal(ensemble.decision_function(X), fused)
        assert np.array_equal(ensemble.predict(X), (fused > 0).astype(int))

    def test_member_scores_shape(self, tiny_engine, tiny_dataset):
        X = self._normalised(tiny_engine, tiny_dataset)
        ensemble = tiny_engine.ensemble
        scores = ensemble.base_scores(X)
        assert scores.shape == (len(X), len(ensemble.members))

    def test_validation(self, tiny_engine):
        ensemble = tiny_engine.ensemble
        n = ensemble.n_features
        for shape in ((7,), (3, 2), (3, n + 4), (2, 3, n)):
            with pytest.raises(ConfigurationError):
                ensemble.predict(np.zeros(shape))
            with pytest.raises(ConfigurationError):
                ensemble.base_scores(np.zeros(shape))

    def test_one_vs_rest_inherits_width_check(self, rng):
        X = rng.normal(size=(30, 8))
        classifier = OneVsRestSubspaceClassifier(
            8, 3, subspace_dim=2, n_draws=2, seed=1
        ).fit(X, np.arange(30) % 3)
        assert classifier.class_scores(X).shape == (30, 3)
        for shape in ((7,), (3, 2), (3, 12)):
            with pytest.raises(ConfigurationError):
                classifier.class_scores(np.zeros(shape))


class TestPredictBatch:
    def test_decisions_identical_to_per_event_path(self, tiny_engine, tiny_dataset):
        segments = tiny_dataset.segments[:40]
        batched = tiny_engine.predict_batch(segments)
        reference = np.asarray(
            [tiny_engine.predict_segment(seg) for seg in segments]
        )
        assert np.array_equal(batched, reference)

    def test_empty_batch_gives_empty_decisions(self, tiny_engine, tiny_dataset):
        # The Haar level's reshape must take zero rows too.
        empty = np.zeros((0, tiny_dataset.segment_length))
        decisions = tiny_engine.predict_batch(empty)
        assert decisions.shape == (0,)
        assert decisions.dtype.kind == "i"
